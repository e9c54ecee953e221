package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"streamcover/internal/stream"
)

func TestIngestColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := make([]uint32, 777)
	elems := make([]uint32, 777)
	for i := range sets {
		sets[i] = uint32(rng.Intn(300))
		elems[i] = uint32(rng.Intn(5000))
	}

	var cols stream.Columns
	name, m, n, err := DecodeIngestInto(columnsIngest("sess", sets, elems, 300, 5000), &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "sess" || m != 300 || n != 5000 || cols.Len() != len(sets) {
		t.Fatalf("got name=%q dims (%d,%d) len %d", name, m, n, cols.Len())
	}
	for i := range sets {
		if cols.Sets[i] != sets[i] || cols.Elems[i] != elems[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}

	seq := EncodeIngestSeqColumns(nil, "sess", 99, 3, sets, elems, 300, 5000)
	name, source, sq, m, n, err := DecodeIngestSeqInto(seq, &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "sess" || source != 99 || sq != 3 || m != 300 || n != 5000 || cols.Len() != len(sets) {
		t.Fatalf("seq decode: name=%q source=%d seq=%d dims (%d,%d) len %d", name, source, sq, m, n, cols.Len())
	}

	// Encoding into a reused buffer must not allocate once grown.
	buf := seq
	allocs := testing.AllocsPerRun(20, func() {
		buf = EncodeIngestSeqColumns(buf, "sess", 99, 4, sets, elems, 300, 5000)
	})
	if allocs != 0 {
		t.Fatalf("EncodeIngestSeqColumns into sized buffer allocated %.0f times", allocs)
	}
}

// TestDecodeIngestIntoRowPayload verifies the decoder accepts the legacy
// row encoding and agrees with stream.ReadBinary on its blob, for both
// the plain and sequenced framings.
func TestDecodeIngestIntoRowPayload(t *testing.T) {
	edges := []stream.Edge{{Set: 4, Elem: 9}, {Set: 0, Elem: 1}, {Set: 4, Elem: 9}}
	want, wm, wn, err := stream.ReadBinary(bytes.NewReader(rowBlob(edges, 5, 10)))
	if err != nil {
		t.Fatal(err)
	}
	wantEdges := want.Edges()
	var cols stream.Columns
	name, m, n, err := DecodeIngestInto(rowIngest("s", edges, 5, 10), &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "s" || m != wm || n != wn || cols.Len() != len(wantEdges) {
		t.Fatalf("row decode disagreement: %q (%d,%d) len %d", name, m, n, cols.Len())
	}
	for i, e := range wantEdges {
		if cols.Sets[i] != e.Set || cols.Elems[i] != e.Elem {
			t.Fatalf("edge %d: (%d,%d) vs (%d,%d)", i, cols.Sets[i], cols.Elems[i], e.Set, e.Elem)
		}
	}

	name, source, seq, m, n, err := DecodeIngestSeqInto(rowIngestSeq("s", 7, 2, edges, 5, 10), &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "s" || source != 7 || seq != 2 || m != 5 || n != 10 || cols.Len() != len(edges) {
		t.Fatalf("seq row decode: name=%q source=%d seq=%d dims (%d,%d) len %d", name, source, seq, m, n, cols.Len())
	}
}

func TestDecodeIngestSeqIntoRejectsZeroIDs(t *testing.T) {
	var cols stream.Columns
	for _, c := range [][2]uint64{{0, 1}, {1, 0}, {0, 0}} {
		buf := appendName(nil, "s")
		buf = binary.AppendUvarint(buf, c[0])
		buf = binary.AppendUvarint(buf, c[1])
		buf = stream.AppendBinaryColumns(buf, nil, nil, 5, 5)
		if _, _, _, _, _, err := DecodeIngestSeqInto(buf, &cols); err == nil {
			t.Errorf("source=%d seq=%d accepted", c[0], c[1])
		}
	}
}
