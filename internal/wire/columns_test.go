package wire

import (
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
	seq := EncodeIngestSeqColumns(nil, "sess", 99, 3, sets, elems, 300, 5000)
	name, source, sq, m, n, err := DecodeIngestSeqInto(seq, &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "sess" || source != 99 || sq != 3 || m != 300 || n != 5000 || cols.Len() != len(sets) {
		t.Fatalf("seq decode: name=%q source=%d seq=%d dims (%d,%d) len %d", name, source, sq, m, n, cols.Len())
	}
	for i := range sets {
		if cols.Sets[i] != sets[i] || cols.Elems[i] != elems[i] {
			t.Fatalf("edge %d mismatch", i)
		}
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
