package wire

import (
	"bytes"
	"testing"

	"streamcover/internal/stream"
)

// FuzzReadFrame drives the frame reader with arbitrary byte streams: it
// must never panic or over-allocate, and any frame it accepts must
// re-encode to the same bytes. Accepted ingest-class payloads are pushed
// through their payload decoders too, so malformed length prefixes and
// truncated MKC1 blobs inside an intact frame are also exercised.
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
	f.Add(frame(TIngest, rowIngest("s", edges, 10, 10)))
	f.Add(frame(TIngestSeq, rowIngestSeq("s", 7, 1, edges, 10, 10)))
	f.Add(frame(TResult, Result{Coverage: 5, Feasible: true, SetIDs: []uint32{1}}.Encode()))
	f.Add([]byte{TIngest, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), make([]byte, 64))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, typ, payload); err != nil {
			t.Fatalf("accepted frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data[:buf.Len()]) {
			t.Fatal("re-encoded frame differs from input prefix")
		}
		// Payload decoders must be panic-free on arbitrary accepted frames.
		var cols stream.Columns
		switch typ {
		case TCreate:
			_, _ = DecodeCreate(payload)
		case TIngest:
			_, _, _, _ = DecodeIngestInto(payload, &cols)
		case TIngestSeq:
			_, _, _, _, _, _ = DecodeIngestSeqInto(payload, &cols)
		case TQuery, TClose:
			_, _ = DecodeRef(payload)
		case TResult:
			_, _ = DecodeResult(payload)
		}
	})
}

// FuzzDecodeIngestColumns drives the fused ingest decoder with arbitrary
// payload bytes. It must never panic, and any payload it accepts must
// survive a re-encode/decode round trip with identical name, dims and
// columns (byte equality is not required — uvarint headers admit
// non-minimal encodings the fuzzer will find).
func FuzzDecodeIngestColumns(f *testing.F) {
	sets := []uint32{1, 2, 1}
	elems := []uint32{3, 0, 3}
	f.Add(columnsIngest("s", sets, elems, 10, 10))
	f.Add(rowIngest("s", []stream.Edge{{Set: 1, Elem: 2}}, 10, 10))
	f.Add(columnsIngest("s", nil, nil, 1, 1))
	trunc := columnsIngest("s", sets, elems, 10, 10)
	f.Add(trunc[:len(trunc)-3])
	f.Add(append(columnsIngest("s", sets, elems, 10, 10), 0xff))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var cols stream.Columns
		name, m, n, err := DecodeIngestInto(payload, &cols)
		if err != nil {
			return
		}
		re := columnsIngest(name, cols.Sets, cols.Elems, m, n)
		var cols2 stream.Columns
		name2, m2, n2, err := DecodeIngestInto(re, &cols2)
		if err != nil {
			t.Fatalf("re-encoded accepted payload rejected: %v", err)
		}
		if name2 != name || m2 != m || n2 != n || cols2.Len() != cols.Len() {
			t.Fatalf("round trip drift: %q (%d,%d) %d vs %q (%d,%d) %d",
				name, m, n, cols.Len(), name2, m2, n2, cols2.Len())
		}
		for i := range cols.Sets {
			if cols2.Sets[i] != cols.Sets[i] || cols2.Elems[i] != cols.Elems[i] {
				t.Fatalf("round trip edge %d drift", i)
			}
		}
	})
}

// FuzzIngestRowColumnarEquivalence is the differential fuzz for the two
// batch encodings: one logical batch encoded as a legacy row blob and as
// columns must decode identically through DecodeIngestInto, and the row
// decode must agree with stream.ReadBinary on the same blob bytes.
func FuzzIngestRowColumnarEquivalence(f *testing.F) {
	f.Add("s", uint32(10), uint32(10), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add("session", uint32(1), uint32(1), []byte{})
	f.Add("x", uint32(1<<20), uint32(1<<30), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, name string, m, n uint32, raw []byte) {
		if len(name) > MaxName {
			name = name[:MaxName]
		}
		m = m%(1<<20) + 1
		n = n%(1<<20) + 1
		count := len(raw) / 8
		edges := make([]stream.Edge, count)
		sets := make([]uint32, count)
		elems := make([]uint32, count)
		for i := 0; i < count; i++ {
			s := uint32(raw[8*i]) | uint32(raw[8*i+1])<<8 | uint32(raw[8*i+2])<<16 | uint32(raw[8*i+3])<<24
			e := uint32(raw[8*i+4]) | uint32(raw[8*i+5])<<8 | uint32(raw[8*i+6])<<16 | uint32(raw[8*i+7])<<24
			sets[i], elems[i] = s%m, e%n
			edges[i] = stream.Edge{Set: sets[i], Elem: elems[i]}
		}

		blob := rowBlob(edges, int(m), int(n))
		ref, rm, rn, err := stream.ReadBinary(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("reference row decode: %v", err)
		}
		var rowCols, colCols stream.Columns
		riName, rim, rin, err := DecodeIngestInto(append(appendName(nil, name), blob...), &rowCols)
		if err != nil {
			t.Fatalf("row decode: %v", err)
		}
		cName, cm, cn, err := DecodeIngestInto(columnsIngest(name, sets, elems, int(m), int(n)), &colCols)
		if err != nil {
			t.Fatalf("columnar decode: %v", err)
		}
		if riName != name || cName != name {
			t.Fatalf("name drift: %q %q vs %q", riName, cName, name)
		}
		if rm != int(m) || rn != int(n) || rim != int(m) || rin != int(n) || cm != int(m) || cn != int(n) {
			t.Fatal("dim drift across decoders")
		}
		refEdges := ref.Edges()
		if len(refEdges) != count || rowCols.Len() != count || colCols.Len() != count {
			t.Fatalf("count drift: %d %d %d vs %d", len(refEdges), rowCols.Len(), colCols.Len(), count)
		}
		for i := 0; i < count; i++ {
			if refEdges[i] != edges[i] ||
				rowCols.Sets[i] != sets[i] || rowCols.Elems[i] != elems[i] ||
				colCols.Sets[i] != sets[i] || colCols.Elems[i] != elems[i] {
				t.Fatalf("edge %d drift across decoders", i)
			}
		}
	})
}
