package wire

import (
	"bytes"
	"testing"

	"streamcover/internal/stream"
)

// FuzzReadFrame drives ReadFrameInto, the frame reader the server, the
// client and the replica use, with arbitrary byte streams read as one
// connection through one growing scratch: it must never panic or
// over-allocate, and every frame it accepts must re-encode to the bytes
// it was read from. Accepted frames of a known type are pushed through
// their payload decoders too, so malformed length prefixes and truncated
// batch blobs inside an intact frame are also exercised. Types 0x02 (the
// retired unsequenced ingest) and 0x07 (the retired staleness-bounded
// query) and a row MKC1 blob seed the corpus as shapes no decoder
// accepts.
func FuzzReadFrame(f *testing.F) {
	frame := func(typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	edges := []stream.Edge{{Set: 1, Elem: 2}, {Set: 3, Elem: 4}}
	f.Add(frame(TPing, nil))
	f.Add(frame(TCreate, Create{Name: "s", M: 10, N: 10, K: 2, Alpha: 4, Seed: 1}.Encode()))
	f.Add(frame(0x02, append(appendName(nil, "s"), rowBlob(edges, 10, 10)...)))
	f.Add(frame(TIngestSeq, rowSeqPayload("s", 7, 1, edges, 10, 10)))
	f.Add(frame(TResult, Result{Coverage: 5, Feasible: true, SetIDs: []uint32{1}}.Encode()))
	f.Add([]byte{0x02, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	f.Add(append(frame(TQuery, EncodeQuery("s", AnyStaleness)),
		append(frame(0x07, EncodeRef("s")), frame(TClose, EncodeRef("s"))...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		scratch := make([]byte, 64)
		var cols stream.Columns
		for off := 0; ; {
			typ, payload, err := ReadFrameInto(r, &scratch)
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, typ, payload); err != nil {
				t.Fatalf("accepted frame failed to re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data[off:off+buf.Len()]) {
				t.Fatalf("frame at offset %d re-encodes to other bytes", off)
			}
			off += buf.Len()
			// Payload decoders must be panic-free on arbitrary accepted frames.
			switch typ {
			case TCreate:
				_, _ = DecodeCreate(payload)
			case TIngestSeq:
				_, _, _, _, _, _ = DecodeIngestSeqInto(payload, &cols)
			case TQuery:
				_, _, _ = DecodeQuery(payload)
			case TClose, TRole:
				_, _ = DecodeRef(payload)
			case TResult:
				_, _ = DecodeResult(payload)
			}
		}
	})
}

// FuzzDecodeIngestColumns drives the ingest decoder with arbitrary
// payload bytes. It must never panic, and any payload it accepts must
// survive a re-encode/decode round trip with identical name, source,
// sequence, dims and columns (byte equality is not required — uvarint
// headers admit non-minimal encodings the fuzzer will find).
func FuzzDecodeIngestColumns(f *testing.F) {
	sets := []uint32{1, 2, 1}
	elems := []uint32{3, 0, 3}
	good := EncodeIngestSeqColumns(nil, "s", 7, 1, sets, elems, 10, 10)
	f.Add(good)
	f.Add(rowSeqPayload("s", 7, 1, []stream.Edge{{Set: 1, Elem: 2}}, 10, 10))
	f.Add(EncodeIngestSeqColumns(nil, "s", 7, 1, nil, nil, 1, 1))
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), 0xff))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var cols stream.Columns
		name, source, seq, m, n, err := DecodeIngestSeqInto(payload, &cols)
		if err != nil {
			return
		}
		re := EncodeIngestSeqColumns(nil, name, source, seq, cols.Sets, cols.Elems, m, n)
		var cols2 stream.Columns
		name2, source2, seq2, m2, n2, err := DecodeIngestSeqInto(re, &cols2)
		if err != nil {
			t.Fatalf("re-encoded accepted payload rejected: %v", err)
		}
		if name2 != name || source2 != source || seq2 != seq || m2 != m || n2 != n || cols2.Len() != cols.Len() {
			t.Fatalf("round trip drift: %q %d/%d (%d,%d) %d vs %q %d/%d (%d,%d) %d",
				name, source, seq, m, n, cols.Len(), name2, source2, seq2, m2, n2, cols2.Len())
		}
		for i := range cols.Sets {
			if cols2.Sets[i] != cols.Sets[i] || cols2.Elems[i] != cols.Elems[i] {
				t.Fatalf("round trip edge %d drift", i)
			}
		}
	})
}
