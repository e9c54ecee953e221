package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"streamcover/internal/hash"
)

// Checkpoint codecs for the composite sketches. A battery's checkpoint
// state (estimator encoding v2) is written by Contributing.AppendState
// and read by RestoreState, which decodes it straight into a freshly
// constructed, same-seed battery. It nests the battery, its heavy-hitter
// levels and their CountSketches as length-prefixed blobs, like the
// primitives' encodings in serialize.go, but each CountSketch writes only
// the counters it stores:
//
//   - a dense-domain sketch writes its reachable cells in (row, bucket)
//     order, lay.start[5] of them, and none while unbuilt or when every
//     stored cell is zero (equal states encode equally);
//   - a wide sketch (widened, or built without a domain) writes its full
//     depth×width table;
//
// after the dimensions and hash functions, which the restore checks
// against the construction's. No layout is written: the restore rebuilds
// it from the construction's hashes and domain, as a first write does.
// Heavy-hitter candidates are written as sorted ids.
//
// A CountSketch's MarshalBinary, which writes the full table, is the
// Section 5 protocol message, not a checkpoint form.
//
// Batch working memory (BatchMemory and Run, which the caller passes to
// each batch call) is never encoded: it holds nothing that survives a
// call, mirroring the SpaceWords contract.

// appendBlob32 appends a 4-byte little-endian length prefix and then
// whatever fill appends, patching the prefix once the length is known.
func appendBlob32(buf []byte, fill func([]byte) ([]byte, error)) ([]byte, error) {
	at := len(buf)
	buf, err := fill(append(buf, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-4))
	return buf, nil
}

func appendPoly(buf []byte, p *hash.Poly) ([]byte, error) {
	return appendBlob32(buf, func(b []byte) ([]byte, error) {
		pb, err := p.MarshalBinary()
		return append(b, pb...), err
	})
}

// verifyPoly reads a poly blob and checks it is the construction's hash.
func verifyPoly(data []byte, want *hash.Poly) ([]byte, error) {
	p, rest, err := readPoly(data)
	if err != nil {
		return nil, err
	}
	if !p.Equal(want) {
		return nil, fmt.Errorf("hash differs from construction (different seed?)")
	}
	return rest, nil
}

// appendState appends the sketch's checkpoint form (see the codec comment
// above).
func (cs *CountSketch) appendState(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.depth))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cs.width))
	var err error
	for r := 0; r < cs.depth; r++ {
		for _, p := range [2]*hash.Poly{cs.bucket[r], cs.sign[r]} {
			if buf, err = appendPoly(buf, p); err != nil {
				return nil, err
			}
		}
	}
	cells := cs.table
	if cs.domain != 0 && allZero(cells) {
		cells = nil
	}
	for _, c := range cells {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
	}
	return buf, nil
}

// restoreState reads an appendState blob into a freshly constructed
// sketch with the same dimensions and hashes, in the form it was encoded
// in. No cells leave a dense sketch unbuilt; exactly the cells the
// construction's layout stores restore dense; a full table restores wide
// (widening a dense sketch). A layout that reaches every cell stores
// depth×width of them, the full table in its row-major order, so such a
// blob restores dense: the same counters in the same order either way.
func (cs *CountSketch) restoreState(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("sketch: truncated CountSketch header")
	}
	depth := int(binary.LittleEndian.Uint32(data[:4]))
	width := int(binary.LittleEndian.Uint32(data[4:8]))
	if depth != cs.depth || width != cs.width {
		return fmt.Errorf("sketch: CountSketch %dx%d, construction has %dx%d", depth, width, cs.depth, cs.width)
	}
	rest := data[8:]
	var err error
	for r := 0; r < depth; r++ {
		for _, want := range [2]*hash.Poly{cs.bucket[r], cs.sign[r]} {
			if rest, err = verifyPoly(rest, want); err != nil {
				return fmt.Errorf("sketch: CountSketch row %d: %w", r, err)
			}
		}
	}
	if len(rest)%8 != 0 {
		return fmt.Errorf("sketch: CountSketch cells take %d bytes, not a whole number", len(rest))
	}
	n := len(rest) / 8
	switch {
	case cs.domain == 0:
		if n != depth*width {
			return fmt.Errorf("sketch: wide CountSketch has %d cells, want %d", n, depth*width)
		}
	case n == 0:
		return nil
	default:
		lay := cs.layout()
		switch n {
		case int(lay.start[5]):
			cs.lay, cs.table = lay, make([]int64, n)
		case depth * width:
			cs.widen()
		default:
			return fmt.Errorf("sketch: CountSketch has %d cells, its layout stores %d", n, lay.start[5])
		}
	}
	for i := range cs.table {
		cs.table[i] = int64(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return nil
}

// appendState appends threshold, capacity, total, the CountSketch's state
// and the candidate ids in ascending order, the canonical order.
func (hh *HeavyHitters) appendState(buf []byte) ([]byte, error) {
	ids := append([]uint64(nil), hh.ids...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var err error
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(hh.phi))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hh.cap))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(hh.total))
	if buf, err = appendBlob32(buf, hh.cs.appendState); err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return buf, nil
}

// restoreState reads an appendState blob into a freshly constructed
// sketch with the same parameters and seed. The candidate ids must be
// strictly ascending, as appendState writes them, so that an accepted
// blob re-encodes to the same bytes.
func (hh *HeavyHitters) restoreState(data []byte) error {
	if len(data) < 20 {
		return fmt.Errorf("sketch: truncated HeavyHitters header")
	}
	phi := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
	capacity := int(binary.LittleEndian.Uint32(data[8:12]))
	if phi != hh.phi || capacity != hh.cap {
		return fmt.Errorf("sketch: HeavyHitters phi=%v cap=%d, construction has phi=%v cap=%d", phi, capacity, hh.phi, hh.cap)
	}
	csb, rest, err := readBlob(data[20:])
	if err != nil {
		return err
	}
	if err := hh.cs.restoreState(csb); err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("sketch: truncated HeavyHitters candidate count")
	}
	n := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if n > capacity || len(rest) != 8*n {
		return fmt.Errorf("sketch: HeavyHitters candidate payload %d bytes for %d of at most %d candidates", len(rest), n, capacity)
	}
	for i := 0; i < n; i++ {
		id := binary.LittleEndian.Uint64(rest[8*i:])
		if i > 0 && id <= hh.ids[i-1] {
			return fmt.Errorf("sketch: HeavyHitters candidate %d is not above its predecessor", i)
		}
		hh.admit(id)
	}
	hh.total = int64(binary.LittleEndian.Uint64(data[12:20]))
	return nil
}

// AppendState appends the battery's checkpoint state: γ, the level count,
// then per level the sampling rate, the sampler hash and the heavy-hitter
// state.
func (c *Contributing) AppendState(buf []byte) ([]byte, error) {
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.gamma))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(c.levels)))
	var err error
	for i := range c.levels {
		lv := &c.levels[i]
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lv.rate))
		if buf, err = appendPoly(buf, lv.sampler); err != nil {
			return nil, err
		}
		if buf, err = appendBlob32(buf, lv.hh.appendState); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// RestoreState reads an AppendState blob into c, which must be freshly
// built with the same parameters and seed. It checks γ, level rates,
// sampler and sketch hashes, φ and capacity against the construction, and
// allocates no more than the construction's own layouts and the counters
// the blob holds. On error c is left partly restored; callers discard it.
func (c *Contributing) RestoreState(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("sketch: truncated Contributing header")
	}
	gamma := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if gamma != c.gamma || n != len(c.levels) {
		return fmt.Errorf("sketch: Contributing snapshot parameter mismatch")
	}
	rest := data[12:]
	for i := range c.levels {
		lv := &c.levels[i]
		if len(rest) < 8 || math.Float64frombits(binary.LittleEndian.Uint64(rest[:8])) != lv.rate {
			return fmt.Errorf("sketch: Contributing level %d rate mismatch", i)
		}
		var err error
		if rest, err = verifyPoly(rest[8:], lv.sampler); err != nil {
			return fmt.Errorf("sketch: Contributing level %d sampler: %w", i, err)
		}
		var hb []byte
		if hb, rest, err = readBlob(rest); err != nil {
			return err
		}
		if err := lv.hh.restoreState(hb); err != nil {
			return fmt.Errorf("sketch: Contributing level %d: %w", i, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("sketch: %d trailing bytes after Contributing", len(rest))
	}
	return nil
}
