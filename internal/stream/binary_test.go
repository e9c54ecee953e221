package stream

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamcover/internal/setsystem"
)

func TestBinaryRoundTrip(t *testing.T) {
	ss := setsystem.MustNew(5, [][]uint32{{0, 1, 2}, {2, 3}, {4}})
	it := Linearize(ss, Shuffled, rand.New(rand.NewSource(1)))
	var buf bytes.Buffer
	if err := WriteBinary(&buf, it, ss.M(), ss.N); err != nil {
		t.Fatal(err)
	}
	got, m, n, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != ss.M() || n != ss.N {
		t.Errorf("dims (%d,%d)", m, n)
	}
	it.Reset()
	if !reflect.DeepEqual(got.Edges(), Collect(it)) {
		t.Error("binary round trip changed edges")
	}
}

func TestBinaryEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, FromEdges(nil), 3, 4); err != nil {
		t.Fatal(err)
	}
	s, m, n, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != 3 || n != 4 || s.Len() != 0 {
		t.Errorf("empty round trip: m=%d n=%d len=%d", m, n, s.Len())
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("MK"),
		[]byte("XXXX"),
		[]byte("MKC1"),                     // missing dims
		append([]byte("MKC1"), 2, 2, 5, 0), // set 5 >= m=2
		append([]byte("MKC1"), 2, 2, 0, 5), // elem 5 >= n=2
		append([]byte("MKC1"), 2, 2, 0),    // dangling set without elem
	}
	for i, c := range cases {
		if _, _, _, err := ReadBinary(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadAutoSniffsBothFormats(t *testing.T) {
	ss := setsystem.MustNew(4, [][]uint32{{0, 1}, {2, 3}})
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, Linearize(ss, SetArrival, nil), ss.M(), ss.N); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, Linearize(ss, SetArrival, nil), ss.M(), ss.N); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"binary": &bin, "text": &txt} {
		s, m, n, err := ReadAuto(buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m != 2 || n != 4 || s.Len() != 4 {
			t.Errorf("%s: m=%d n=%d len=%d", name, m, n, s.Len())
		}
	}
	if _, _, _, err := ReadAuto(strings.NewReader("x")); err == nil {
		t.Error("1-byte input accepted")
	}
}

func TestBinarySmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sets := make([][]uint32, 500)
	for i := range sets {
		for j := 0; j < 20; j++ {
			sets[i] = append(sets[i], uint32(rng.Intn(10000)))
		}
	}
	ss := setsystem.MustNew(10000, sets)
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, Linearize(ss, SetArrival, nil), ss.M(), ss.N); err != nil {
		t.Fatal(err)
	}
	if err := Write(&txt, Linearize(ss, SetArrival, nil), ss.M(), ss.N); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len() {
		t.Errorf("binary %d bytes >= text %d bytes", bin.Len(), txt.Len())
	}
}

// rowBlob is the in-memory MKC1 blob WriteBinary produces.
func rowBlob(t testing.TB, edges []Edge, m, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, FromEdges(edges), m, n); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeBinaryRejectsGarbage cuts and corrupts a WriteBinary blob:
// ReadBinary must refuse each, and the in-memory batch decoder, which
// reads only the columnar layout, must refuse the intact row blob too.
func TestDecodeBinaryRejectsGarbage(t *testing.T) {
	good := rowBlob(t, []Edge{{1, 2}, {3, 4}}, 10, 10)
	cases := map[string][]byte{
		"empty":          nil,
		"short magic":    good[:3],
		"bad magic":      []byte("XKC1ab"),
		"truncated dims": good[:5],
		"truncated edge": good[:len(good)-1],
		"out of bounds":  rowBlob(t, []Edge{{10, 0}}, 10, 10),
	}
	for name, blob := range cases {
		if _, _, _, err := ReadBinary(bytes.NewReader(blob)); err == nil {
			t.Errorf("ReadBinary accepted %s", name)
		}
	}
	var cols Columns
	if _, _, err := DecodeBinaryColumnsInto(good, &cols); err == nil {
		t.Error("DecodeBinaryColumnsInto accepted a row blob")
	}
}
