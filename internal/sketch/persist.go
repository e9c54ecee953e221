package sketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
)

// Snapshot codecs for the composite sketches. serialize.go covers the
// primitive summaries (CountSketch, L0, HLL); the encodings here extend
// the same length-prefixed-blob format upward to HeavyHitters and
// Contributing so a whole oracle's state can be captured for the
// kcoverd durability layer (internal/snapshot). Like the primitives,
// a decoded sketch keeps absorbing updates and merges with equal-seed
// siblings.
//
// Batch working memory (BatchMemory, lent by the caller for one batch at
// a time) is never encoded: it holds nothing that survives a batch,
// mirroring the SpaceWords contract. Encoding is only legal between
// batches.

// MarshalBinary encodes threshold, totals, the CountSketch and the
// candidate set. The encoding is canonical: candidates are sorted by id,
// and each is written with a weight word, its current estimate from the
// CountSketch. The sketch keeps no per-candidate weight (refreshes and
// Report re-estimate), so the word is a pure function of the encoded
// counters: UnmarshalBinary reads and ignores it, and it stays only so
// the checkpoint format is unchanged. It must not be called while a batch
// is open.
func (hh *HeavyHitters) MarshalBinary() ([]byte, error) {
	if hh.batchKeys != nil {
		return nil, fmt.Errorf("sketch: cannot marshal HeavyHitters mid-batch")
	}
	var buf bytes.Buffer
	var hdr [20]byte
	binary.LittleEndian.PutUint64(hdr[:8], math.Float64bits(hh.phi))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(hh.cap))
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(hh.total))
	buf.Write(hdr[:])
	csb, err := hh.cs.MarshalBinary()
	if err != nil {
		return nil, err
	}
	writeBlob(&buf, csb)
	ids := make([]uint64, 0, hh.n)
	for i, u := range hh.used {
		if u {
			ids = append(ids, hh.ids[i])
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(ids)))
	buf.Write(cnt[:])
	var cell [16]byte
	for _, id := range ids {
		binary.LittleEndian.PutUint64(cell[:8], id)
		binary.LittleEndian.PutUint64(cell[8:], uint64(hh.cs.Estimate(id)))
		buf.Write(cell[:])
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a sketch written by MarshalBinary.
func (hh *HeavyHitters) UnmarshalBinary(data []byte) error {
	if len(data) < 20 {
		return fmt.Errorf("sketch: truncated HeavyHitters header")
	}
	phi := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
	capacity := int(binary.LittleEndian.Uint32(data[8:12]))
	total := int64(binary.LittleEndian.Uint64(data[12:20]))
	if !(phi > 0 && phi <= 1) || capacity < 1 || capacity > 1<<24 {
		return fmt.Errorf("sketch: implausible HeavyHitters params phi=%v cap=%d", phi, capacity)
	}
	csb, rest, err := readBlob(data[20:])
	if err != nil {
		return err
	}
	var cs CountSketch
	if err := cs.UnmarshalBinary(csb); err != nil {
		return err
	}
	if len(rest) < 4 {
		return fmt.Errorf("sketch: truncated HeavyHitters candidate count")
	}
	n := int(binary.LittleEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if n > capacity {
		return fmt.Errorf("sketch: HeavyHitters candidates %d exceed capacity %d", n, capacity)
	}
	// Every sketch is built by newF2HeavyHitters, so its dimensions follow
	// from phi. Checking that bounds the candidate table allocated below by
	// the size of the CountSketch the blob really holds.
	if width, c := hhDims(phi); capacity != c || cs.width != width || cs.depth != hhDepth {
		return fmt.Errorf("sketch: HeavyHitters phi=%v wants cap %d and a %dx%d CountSketch, blob has cap %d and %dx%d",
			phi, c, hhDepth, width, capacity, cs.depth, cs.width)
	}
	if len(rest) != 16*n {
		return fmt.Errorf("sketch: HeavyHitters candidate payload %d bytes, want %d", len(rest), 16*n)
	}
	out := HeavyHitters{phi: phi, cs: &cs, cap: capacity, total: total}
	out.initTable()
	for i := 0; i < n; i++ {
		id := binary.LittleEndian.Uint64(rest[16*i:])
		slot, dup := out.findSlot(id)
		if dup {
			return fmt.Errorf("sketch: HeavyHitters duplicate candidate %d", id)
		}
		out.insert(slot, id) // rest[16*i+8:] is the ignored weight word
	}
	*hh = out
	return nil
}

// Restore adopts the state of a decoded snapshot into a freshly built
// empty sketch with the same parameters, verifying that the snapshot's
// hash functions are identical to the construction's (same seed). Unlike
// Merge it adopts the candidate set without a trim, so a restored sketch
// is bit-identical to the one that was encoded.
func (hh *HeavyHitters) Restore(dec *HeavyHitters) error {
	if dec == nil || hh.phi != dec.phi || hh.cap != dec.cap {
		return fmt.Errorf("sketch: HeavyHitters snapshot parameter mismatch")
	}
	// The construction's sketch is all-zero, so merging the snapshot in
	// yields its exact counters while verifying dimensions and hashes.
	if err := hh.cs.Merge(dec.cs); err != nil {
		return err
	}
	hh.total = dec.total
	hh.ids, hh.used = dec.ids, dec.used
	hh.ki, hh.kiEp, hh.live = dec.ki, dec.kiEp, dec.live
	hh.mask, hh.n = dec.mask, dec.n
	return nil
}

// Restore adopts a decoded snapshot into a freshly built empty battery,
// verifying level structure and sampler identity.
func (c *Contributing) Restore(dec *Contributing) error {
	if dec == nil || c.gamma != dec.gamma || len(c.levels) != len(dec.levels) {
		return fmt.Errorf("sketch: Contributing snapshot parameter mismatch")
	}
	for i := range c.levels {
		if c.levels[i].rate != dec.levels[i].rate ||
			!c.levels[i].sampler.Equal(dec.levels[i].sampler) {
			return fmt.Errorf("sketch: Contributing level %d snapshot mismatch", i)
		}
	}
	for i := range c.levels {
		if err := c.levels[i].hh.Restore(dec.levels[i].hh); err != nil {
			return fmt.Errorf("sketch: Contributing level %d: %w", i, err)
		}
	}
	return nil
}

// MarshalBinary encodes the battery level by level: sampling rate,
// sampler hash and heavy-hitter state. Illegal mid-batch (AddBatch
// completes each level's batch before returning, so this only guards
// against marshaling from inside the sketch's own machinery).
func (c *Contributing) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], math.Float64bits(c.gamma))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(c.levels)))
	buf.Write(hdr[:])
	for i := range c.levels {
		lv := &c.levels[i]
		var rate [8]byte
		binary.LittleEndian.PutUint64(rate[:], math.Float64bits(lv.rate))
		buf.Write(rate[:])
		if err := writePoly(&buf, lv.sampler); err != nil {
			return nil, err
		}
		hb, err := lv.hh.MarshalBinary()
		if err != nil {
			return nil, err
		}
		writeBlob(&buf, hb)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a battery written by MarshalBinary.
func (c *Contributing) UnmarshalBinary(data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("sketch: truncated Contributing header")
	}
	gamma := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
	n := int(binary.LittleEndian.Uint32(data[8:12]))
	if !(gamma > 0 && gamma <= 1) || n < 1 || n > 64 {
		return fmt.Errorf("sketch: implausible Contributing params gamma=%v levels=%d", gamma, n)
	}
	rest := data[12:]
	out := Contributing{gamma: gamma, levels: make([]contribLevel, n)}
	for i := 0; i < n; i++ {
		if len(rest) < 8 {
			return fmt.Errorf("sketch: truncated Contributing level %d rate", i)
		}
		out.levels[i].rate = math.Float64frombits(binary.LittleEndian.Uint64(rest[:8]))
		rest = rest[8:]
		var err error
		if out.levels[i].sampler, rest, err = readPoly(rest); err != nil {
			return err
		}
		hb, r2, err := readBlob(rest)
		if err != nil {
			return err
		}
		rest = r2
		hh := new(HeavyHitters)
		if err := hh.UnmarshalBinary(hb); err != nil {
			return fmt.Errorf("sketch: Contributing level %d: %w", i, err)
		}
		out.levels[i].hh = hh
	}
	if len(rest) != 0 {
		return fmt.Errorf("sketch: %d trailing bytes after Contributing", len(rest))
	}
	*c = out
	return nil
}
