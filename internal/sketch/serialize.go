package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"streamcover/internal/hash"
)

// Serialization: the primitive sketches (CountSketch, L0, HLL) implement
// encoding.BinaryMarshaler / BinaryUnmarshaler. The encodings carry the
// hash functions, so a decoded sketch keeps absorbing updates and merging
// with siblings — this is the message format of the Section 5 one-way
// communication protocol, whose per-hop cost the experiments measure in
// real serialized bytes. The composite sketches' checkpoint codec is in
// persist.go.

func writeBlob(buf *bytes.Buffer, b []byte) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	buf.Write(hdr[:])
	buf.Write(b)
}

func readBlob(data []byte) (blob, rest []byte, err error) {
	if len(data) < 4 {
		return nil, nil, fmt.Errorf("sketch: truncated blob header")
	}
	n := int64(binary.LittleEndian.Uint32(data))
	if int64(len(data))-4 < n {
		return nil, nil, fmt.Errorf("sketch: truncated blob body (%d of %d bytes)", len(data)-4, n)
	}
	return data[4 : 4+n], data[4+n:], nil
}

func writePoly(buf *bytes.Buffer, p *hash.Poly) error {
	b, err := p.MarshalBinary()
	if err != nil {
		return err
	}
	writeBlob(buf, b)
	return nil
}

func readPoly(data []byte) (*hash.Poly, []byte, error) {
	blob, rest, err := readBlob(data)
	if err != nil {
		return nil, nil, err
	}
	var p hash.Poly
	if err := p.UnmarshalBinary(blob); err != nil {
		return nil, nil, err
	}
	return &p, rest, nil
}

// MarshalBinary encodes dimensions, hash functions and counters, every
// row at full width whatever the storage form, so equal counters encode
// to equal bytes.
func (cs *CountSketch) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(8 + cs.depth*8*cs.width)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(cs.depth))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(cs.width))
	buf.Write(hdr[:])
	row := make([]int64, cs.width)
	cells := make([]byte, 0, 8*cs.width)
	for r := 0; r < cs.depth; r++ {
		if err := writePoly(&buf, cs.bucket[r]); err != nil {
			return nil, err
		}
		if err := writePoly(&buf, cs.sign[r]); err != nil {
			return nil, err
		}
		cs.expandRow(r, row)
		cells = cells[:0]
		for _, c := range row {
			cells = binary.LittleEndian.AppendUint64(cells, uint64(c))
		}
		buf.Write(cells)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a sketch written by MarshalBinary. The result
// is wide; a Merge into a dense sketch compacts it.
func (cs *CountSketch) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("sketch: truncated CountSketch header")
	}
	depth := int(binary.LittleEndian.Uint32(data[:4]))
	width := int(binary.LittleEndian.Uint32(data[4:8]))
	if depth < 1 || depth > 64 || width < 1 || width > 1<<28 || depth*width > 1<<30 {
		return fmt.Errorf("sketch: implausible CountSketch dims %dx%d", depth, width)
	}
	rest := data[8:]
	// The counters alone take 8·depth·width bytes: check the blob holds
	// them before allocating what the header claims.
	if len(rest) < 8*depth*width {
		return fmt.Errorf("sketch: CountSketch %dx%d needs %d counter bytes, blob has %d", depth, width, 8*depth*width, len(rest))
	}
	out := CountSketch{
		depth:  depth,
		width:  width,
		table:  make([]int64, depth*width),
		bucket: make([]*hash.Poly, depth),
		sign:   make([]*hash.Poly, depth),
	}
	var err error
	for r := 0; r < depth; r++ {
		if out.bucket[r], rest, err = readPoly(rest); err != nil {
			return err
		}
		if out.sign[r], rest, err = readPoly(rest); err != nil {
			return err
		}
		if len(rest) < 8*width {
			return fmt.Errorf("sketch: truncated CountSketch row %d", r)
		}
		row := out.storedRow(r)
		for b := 0; b < width; b++ {
			row[b] = int64(binary.LittleEndian.Uint64(rest[8*b:]))
		}
		rest = rest[8*width:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("sketch: %d trailing bytes after CountSketch", len(rest))
	}
	*cs = out
	return nil
}

// MarshalBinary encodes the hash, capacity and retained values. The
// retained values are written in sorted order, not heap-array order: the
// heap layout depends on insertion history (stream order vs merge order)
// while the retained SET is what defines behavior, so sorting makes
// behaviorally equal sketches encode identically.
func (s *L0) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := writePoly(&buf, s.h); err != nil {
		return nil, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(s.k))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(s.vals)))
	binary.LittleEndian.PutUint64(hdr[8:], s.adds)
	buf.Write(hdr[:])
	vals := append([]uint64(nil), s.vals...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	var cell [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(cell[:], v)
		buf.Write(cell[:])
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a sketch written by MarshalBinary.
func (s *L0) UnmarshalBinary(data []byte) error {
	h, rest, err := readPoly(data)
	if err != nil {
		return err
	}
	if len(rest) < 16 {
		return fmt.Errorf("sketch: truncated L0 header")
	}
	k := int(binary.LittleEndian.Uint32(rest[:4]))
	n := int(binary.LittleEndian.Uint32(rest[4:8]))
	adds := binary.LittleEndian.Uint64(rest[8:16])
	if k < 1 || n > k {
		return fmt.Errorf("sketch: implausible L0 sizes k=%d n=%d", k, n)
	}
	rest = rest[16:]
	if len(rest) != 8*n {
		return fmt.Errorf("sketch: L0 payload %d bytes, want %d", len(rest), 8*n)
	}
	// Size by the n values the blob holds, not the k it claims. The values
	// must be strictly ascending, as MarshalBinary writes them, so that an
	// accepted blob re-encodes to the same bytes.
	out := L0{h: h, k: k, adds: adds, vals: make(maxHeap, 0, n)}
	for i := 0; i < n; i++ {
		v := binary.LittleEndian.Uint64(rest[8*i:])
		if i > 0 && v <= out.vals[len(out.vals)-1] {
			return fmt.Errorf("sketch: L0 value %d is not above its predecessor", i)
		}
		out.vals = append(out.vals, v)
	}
	out.vals.heapify()
	*s = out
	return nil
}

// MarshalBinary encodes precision, hash and registers.
func (s *HLL) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := writePoly(&buf, s.h); err != nil {
		return nil, err
	}
	var hdr [9]byte
	hdr[0] = s.p
	binary.LittleEndian.PutUint64(hdr[1:], s.adds)
	buf.Write(hdr[:])
	buf.Write(s.regs)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a sketch written by MarshalBinary.
func (s *HLL) UnmarshalBinary(data []byte) error {
	h, rest, err := readPoly(data)
	if err != nil {
		return err
	}
	if len(rest) < 9 {
		return fmt.Errorf("sketch: truncated HLL header")
	}
	p := rest[0]
	adds := binary.LittleEndian.Uint64(rest[1:9])
	if p < 4 || p > 18 {
		return fmt.Errorf("sketch: implausible HLL precision %d", p)
	}
	rest = rest[9:]
	if len(rest) != 1<<p {
		return fmt.Errorf("sketch: HLL registers %d bytes, want %d", len(rest), 1<<p)
	}
	*s = HLL{p: p, h: h, adds: adds, regs: append([]uint8(nil), rest...)}
	return nil
}
