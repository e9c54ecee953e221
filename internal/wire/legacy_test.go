package wire

import (
	"bytes"
	"encoding/binary"

	"streamcover/internal/stream"
)

// Legacy ingest payloads. The client sends only sequenced columnar
// batches (EncodeIngestSeqColumns), but servers still decode the other
// three shapes — unsequenced TIngest frames and row MKC1 blobs — because
// earlier clients sent them and old WAL records hold them. These
// fixtures build those shapes for the decoder tests.

// rowBlob is one in-memory MKC1 blob: stream.WriteBinary's format.
func rowBlob(edges []stream.Edge, m, n int) []byte {
	var buf bytes.Buffer
	if err := stream.WriteBinary(&buf, stream.FromEdges(edges), m, n); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return buf.Bytes()
}

// rowIngest is a TIngest payload carrying a row blob.
func rowIngest(name string, edges []stream.Edge, m, n int) []byte {
	return append(appendName(nil, name), rowBlob(edges, m, n)...)
}

// rowIngestSeq is a TIngestSeq payload carrying a row blob.
func rowIngestSeq(name string, source, seq uint64, edges []stream.Edge, m, n int) []byte {
	buf := binary.AppendUvarint(appendName(nil, name), source)
	buf = binary.AppendUvarint(buf, seq)
	return append(buf, rowBlob(edges, m, n)...)
}

// columnsIngest is a TIngest payload carrying a columnar blob.
func columnsIngest(name string, sets, elems []uint32, m, n int) []byte {
	return stream.AppendBinaryColumns(appendName(nil, name), sets, elems, m, n)
}
