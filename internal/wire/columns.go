package wire

import (
	"encoding/binary"
	"fmt"

	"streamcover/internal/stream"
)

// Ingest encoding. A TIngestSeq payload carries one columnar "MKC2" batch
// blob (two fixed-width ID columns, stream.AppendBinaryColumns) after the
// routing header. A WAL record stores the frame type byte plus the
// verbatim payload, and replay decodes it as the live path does.
//
// The point of the columnar layout is zero-transform ingest: the client
// accumulates edges as two ID columns, the encoder writes those columns
// verbatim, and the server decodes them with a bulk copy straight into
// arenas the core prepass consumes — no per-edge structs anywhere between
// the client's Send call and the hash kernel.

// EncodeIngestSeqColumns frames a sequenced columnar batch: session name,
// client source identity, per-session sequence number, then the edge
// columns as one MKC2 blob. buf is reused when capacity allows.
func EncodeIngestSeqColumns(buf []byte, name string, source, seq uint64, sets, elems []uint32, m, n int) []byte {
	buf = appendName(buf[:0], name)
	buf = binary.AppendUvarint(buf, source)
	buf = binary.AppendUvarint(buf, seq)
	return stream.AppendBinaryColumns(buf, sets, elems, m, n)
}

// DecodeIngestSeqInto parses a TIngestSeq payload into cols, reusing its
// backing arrays. Source and seq must both be nonzero. IDs are validated
// against the blob's own declared dims; the caller checks those against
// the session's.
func DecodeIngestSeqInto(p []byte, cols *stream.Columns) (name string, source, seq uint64, m, n int, err error) {
	name, rest, err := decodeName(p)
	if err != nil {
		return "", 0, 0, 0, 0, err
	}
	source, w := binary.Uvarint(rest)
	if w <= 0 {
		return "", 0, 0, 0, 0, fmt.Errorf("wire: bad ingest source")
	}
	rest = rest[w:]
	seq, w = binary.Uvarint(rest)
	if w <= 0 {
		return "", 0, 0, 0, 0, fmt.Errorf("wire: bad ingest sequence")
	}
	rest = rest[w:]
	if source == 0 || seq == 0 {
		return "", 0, 0, 0, 0, fmt.Errorf("wire: zero ingest source or sequence")
	}
	m, n, err = stream.DecodeBinaryColumnsInto(rest, cols)
	if err != nil {
		return "", 0, 0, 0, 0, err
	}
	return name, source, seq, m, n, nil
}
