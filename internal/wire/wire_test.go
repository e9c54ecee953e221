package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"streamcover/internal/stream"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {1}, bytes.Repeat([]byte{0xab}, 100000)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	scratch := make([]byte, 16)
	for i, want := range payloads {
		typ, got, err := ReadFrameInto(&buf, &scratch)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, want) {
			t.Errorf("frame %d: type %d payload %d bytes, want type %d payload %d bytes",
				i, typ, len(got), i+1, len(want))
		}
	}
	// The 100000-byte payload grew the scratch to the next power of two,
	// which later frames reuse.
	if cap(scratch) != 1<<17 {
		t.Errorf("scratch capacity %d after a 100000-byte frame, want %d", cap(scratch), 1<<17)
	}
}

func TestFrameLimits(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, TIngestSeq, make([]byte, MaxFrame+1)); err == nil {
		t.Error("oversized write frame accepted")
	}
	// Corrupt length prefix beyond the cap must be rejected before any
	// allocation.
	var scratch []byte
	bad := []byte{TIngestSeq, 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrameInto(bytes.NewReader(bad), &scratch); err == nil {
		t.Error("oversized read frame accepted")
	}
	// Truncated payload.
	var tr bytes.Buffer
	WriteFrame(&tr, TOK, []byte("abcdef"))
	trunc := tr.Bytes()[:tr.Len()-2]
	if _, _, err := ReadFrameInto(bytes.NewReader(trunc), &scratch); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestCreateRoundTrip(t *testing.T) {
	want := Create{Name: "crawl-7", M: 2000, N: 20000, K: 40, Alpha: 4.5, Seed: -12345}
	got, err := DecodeCreate(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip %+v != %+v", got, want)
	}
	if _, err := DecodeCreate(want.Encode()[:5]); err == nil {
		t.Error("truncated create accepted")
	}
	long := Create{Name: strings.Repeat("x", MaxName+1)}
	if _, err := DecodeCreate(long.Encode()); err == nil {
		t.Error("oversized name accepted")
	}
}

// rowBlob is a row MKC1 blob, stream.WriteBinary's file format, which no
// ingest decoder accepts.
func rowBlob(edges []stream.Edge, m, n int) []byte {
	var blob bytes.Buffer
	if err := stream.WriteBinary(&blob, stream.FromEdges(edges), m, n); err != nil {
		panic(err) // bytes.Buffer writes cannot fail
	}
	return blob.Bytes()
}

// rowSeqPayload is a TIngestSeq payload whose batch blob is row MKC1.
func rowSeqPayload(name string, source, seq uint64, edges []stream.Edge, m, n int) []byte {
	buf := binary.AppendUvarint(appendName(nil, name), source)
	buf = binary.AppendUvarint(buf, seq)
	return append(buf, rowBlob(edges, m, n)...)
}

// TestIngestRoundTrip decodes a batch whose IDs reach both ends of its
// dims into columns, then a shorter one into the same columns.
func TestIngestRoundTrip(t *testing.T) {
	edges := []stream.Edge{{Set: 0, Elem: 5}, {Set: 3, Elem: 0}, {Set: 999, Elem: 4999}}
	sets, elems := make([]uint32, len(edges)), make([]uint32, len(edges))
	for i, e := range edges {
		sets[i], elems[i] = e.Set, e.Elem
	}
	var cols stream.Columns
	name, _, _, m, n, err := DecodeIngestSeqInto(EncodeIngestSeqColumns(nil, "s1", 1, 1, sets, elems, 1000, 5000), &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "s1" || m != 1000 || n != 5000 {
		t.Errorf("header (%q,%d,%d)", name, m, n)
	}
	if cols.Len() != len(edges) {
		t.Fatalf("%d edges, want %d", cols.Len(), len(edges))
	}
	for i, e := range edges {
		if cols.Sets[i] != e.Set || cols.Elems[i] != e.Elem {
			t.Errorf("edge %d: (%d,%d) != %v", i, cols.Sets[i], cols.Elems[i], e)
		}
	}
	// Reuse must reset, not append.
	short := EncodeIngestSeqColumns(nil, "s1", 1, 2, sets[:1], elems[:1], 1000, 5000)
	if _, _, _, _, _, err := DecodeIngestSeqInto(short, &cols); err != nil || cols.Len() != 1 {
		t.Errorf("column reuse broken: %d edges, %v", cols.Len(), err)
	}
}

func TestIngestSeqRoundTrip(t *testing.T) {
	sets, elems := []uint32{1, 7}, []uint32{2, 7}
	payload := EncodeIngestSeqColumns(nil, "s2", 0xdeadbeef, 42, sets, elems, 100, 100)
	var cols stream.Columns
	name, source, seq, m, n, err := DecodeIngestSeqInto(payload, &cols)
	if err != nil {
		t.Fatal(err)
	}
	if name != "s2" || source != 0xdeadbeef || seq != 42 || m != 100 || n != 100 {
		t.Errorf("header (%q,%d,%d,%d,%d)", name, source, seq, m, n)
	}
	if cols.Len() != 2 || cols.Sets[0] != 1 || cols.Elems[0] != 2 || cols.Sets[1] != 7 || cols.Elems[1] != 7 {
		t.Errorf("columns %v %v, want %v %v", cols.Sets, cols.Elems, sets, elems)
	}
	// Reuse must reset, not append.
	payload2 := EncodeIngestSeqColumns(payload, "s2", 0xdeadbeef, 43, sets[:1], elems[:1], 100, 100)
	if _, _, seq2, _, _, err := DecodeIngestSeqInto(payload2, &cols); err != nil || seq2 != 43 || cols.Len() != 1 {
		t.Errorf("buffer reuse broken: seq %d, %d edges, %v", seq2, cols.Len(), err)
	}
}

// TestIngestSeqRejectsMalformed runs every rejection case, including a
// well-formed payload whose batch blob is row MKC1.
func TestIngestSeqRejectsMalformed(t *testing.T) {
	encode := func(source, seq uint64) []byte {
		return EncodeIngestSeqColumns(nil, "s", source, seq, []uint32{1}, []uint32{2}, 10, 10)
	}
	good := encode(7, 9)
	for name, payload := range map[string][]byte{
		"zero source": encode(0, 9),
		"zero seq":    encode(7, 0),
		"empty":       nil,
		"name only":   good[:2],
		"truncated":   good[:len(good)-3],
		"row blob":    rowSeqPayload("s", 7, 9, []stream.Edge{{Set: 1, Elem: 2}}, 10, 10),
	} {
		var cols stream.Columns
		if _, _, _, _, _, err := DecodeIngestSeqInto(payload, &cols); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	for _, want := range []Result{
		{Coverage: 8123.5, Feasible: true, SpaceWords: 77, Edges: 123456, SetIDs: []uint32{4, 0, 99}},
		{Coverage: 0, Feasible: false, SetIDs: nil},
	} {
		got, err := DecodeResult(want.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if got.Coverage != want.Coverage || got.Feasible != want.Feasible ||
			got.SpaceWords != want.SpaceWords || got.Edges != want.Edges ||
			len(got.SetIDs) != len(want.SetIDs) {
			t.Errorf("round trip %+v != %+v", got, want)
		}
		for i := range want.SetIDs {
			if got.SetIDs[i] != want.SetIDs[i] {
				t.Errorf("set id %d: %d != %d", i, got.SetIDs[i], want.SetIDs[i])
			}
		}
	}
	if _, err := DecodeResult([]byte{1, 2, 3}); err == nil {
		t.Error("truncated result accepted")
	}
}

func TestRefRoundTrip(t *testing.T) {
	name, err := DecodeRef(EncodeRef("sess"))
	if err != nil || name != "sess" {
		t.Errorf("ref round trip: %q, %v", name, err)
	}
	if _, err := DecodeRef(append(EncodeRef("sess"), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
