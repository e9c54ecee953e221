package stream

import (
	"math/rand"
	"testing"
)

func randomColumns(count, m, n int, rng *rand.Rand) (sets, elems []uint32) {
	sets = make([]uint32, count)
	elems = make([]uint32, count)
	for i := range sets {
		sets[i] = uint32(rng.Intn(m))
		elems[i] = uint32(rng.Intn(n))
	}
	return sets, elems
}

func TestColumnsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, count := range []int{0, 1, 7, 4096} {
		sets, elems := randomColumns(count, 500, 9000, rng)
		blob := AppendBinaryColumns(nil, sets, elems, 500, 9000)

		var cols Columns
		m, n, err := DecodeBinaryColumnsInto(blob, &cols)
		if err != nil {
			t.Fatalf("count=%d: decode: %v", count, err)
		}
		if m != 500 || n != 9000 || cols.Len() != count {
			t.Fatalf("count=%d: got dims (%d,%d) len %d", count, m, n, cols.Len())
		}
		for i := range sets {
			if cols.Sets[i] != sets[i] || cols.Elems[i] != elems[i] {
				t.Fatalf("count=%d: edge %d mismatch", count, i)
			}
		}
	}
}

// TestDecodeColumnsReuse verifies repeated decodes into one Columns reuse
// its backing arrays once grown.
func TestDecodeColumnsReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets, elems := randomColumns(1024, 64, 64, rng)
	blob := AppendBinaryColumns(nil, sets, elems, 64, 64)

	var cols Columns
	if _, _, err := DecodeBinaryColumnsInto(blob, &cols); err != nil {
		t.Fatal(err)
	}
	p0, p1 := &cols.Sets[0], &cols.Elems[0]
	small := AppendBinaryColumns(nil, sets[:10], elems[:10], 64, 64)
	if _, _, err := DecodeBinaryColumnsInto(small, &cols); err != nil {
		t.Fatal(err)
	}
	if cols.Len() != 10 || &cols.Sets[0] != p0 || &cols.Elems[0] != p1 {
		t.Fatal("smaller decode did not reuse the grown arrays")
	}
}

func TestDecodeColumnsMalformed(t *testing.T) {
	good := AppendBinaryColumns(nil, []uint32{1, 2}, []uint32{3, 4}, 10, 10)
	cases := map[string][]byte{
		"empty":          {},
		"short magic":    good[:3],
		"row magic":      rowBlob(t, []Edge{{Set: 1, Elem: 2}}, 10, 10),
		"truncated dims": good[:5],
		"truncated body": good[:len(good)-1],
		"trailing byte":  append(append([]byte{}, good...), 0),
		"set oob":        AppendBinaryColumns(nil, []uint32{10}, []uint32{0}, 10, 10),
		"elem oob":       AppendBinaryColumns(nil, []uint32{0}, []uint32{10}, 10, 10),
		"huge count": append([]byte{'M', 'K', 'C', '2'}, // m=1, n=1, count=2^40, no body
			0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40),
	}
	for name, blob := range cases {
		var cols Columns
		if _, _, err := DecodeBinaryColumnsInto(blob, &cols); err == nil {
			t.Errorf("%s: decode accepted malformed blob", name)
		}
	}
}
