package sketch

import "fmt"

// Mergeability: all three sketches are linear (CountSketch) or
// lattice-style (L0 bottom-k, HLL max-registers) summaries, so two
// sketches built with the SAME hash functions over disjoint (or even
// overlapping) substreams merge into the sketch of the combined stream.
// This is what lets the Section 5 one-way protocol forward state between
// players, and what makes the sketches usable for partitioned/distributed
// streams. Merging sketches with different hash functions is an error.

// Merge folds other into cs. Both must have identical dimensions and hash
// functions (i.e. be copies created from the same seed, or decoded from
// the same serialized ancestor). The storage forms may differ: sketches
// dense over the same domain add their compact cells (an unbuilt cs
// adopts other's layout), and any other pairing adds other's full matrix,
// which widens a dense cs only if it carries a cell cs's domain cannot
// reach (see addFull).
func (cs *CountSketch) Merge(other *CountSketch) error {
	if other == nil || cs.depth != other.depth || cs.width != other.width {
		return fmt.Errorf("sketch: CountSketch dimension mismatch")
	}
	for r := 0; r < cs.depth; r++ {
		if !cs.bucket[r].Equal(other.bucket[r]) || !cs.sign[r].Equal(other.sign[r]) {
			return fmt.Errorf("sketch: CountSketch hash mismatch in row %d", r)
		}
	}
	switch {
	case other.domain != 0 && other.lay == nil:
		// Unbuilt: every counter is zero.
	case cs.domain != 0 && cs.domain == other.domain:
		// Equal hashes and domain give equal layouts, so the compact
		// tables line up cell for cell.
		if cs.lay == nil {
			cs.lay, cs.table = other.lay, make([]int64, len(other.table))
		}
		for i, c := range other.table {
			cs.table[i] += c
		}
	default:
		cs.addFull(other.full())
	}
	return nil
}

// Merge folds other into s: the union's bottom-k is the bottom-k of the
// merged value sets. Both sketches must share the hash function and
// capacity.
func (s *L0) Merge(other *L0) error {
	if other == nil || s.k != other.k {
		return fmt.Errorf("sketch: L0 capacity mismatch")
	}
	if !s.h.Equal(other.h) {
		return fmt.Errorf("sketch: L0 hash mismatch")
	}
	for _, v := range other.vals {
		s.insertValue(v)
	}
	s.adds += other.adds
	return nil
}

// insertValue inserts a pre-hashed value into the bottom-k structure. A
// full sketch drops a value at or above its maximum before looking for it
// among the retained values.
func (s *L0) insertValue(v uint64) {
	full := len(s.vals) == s.k
	if full && v >= s.vals[0] {
		return
	}
	for _, u := range s.vals {
		if u == v {
			return
		}
	}
	if !full {
		s.vals.push(v)
		return
	}
	s.vals[0] = v
	s.vals.down(0)
}

// MergeDistinct folds b into a when both are the same distinct-counter
// implementation built from the same hash function.
func MergeDistinct(a, b DistinctCounter) error {
	switch x := a.(type) {
	case *L0:
		y, ok := b.(*L0)
		if !ok {
			return fmt.Errorf("sketch: cannot merge %T into *L0", b)
		}
		return x.Merge(y)
	case *HLL:
		y, ok := b.(*HLL)
		if !ok {
			return fmt.Errorf("sketch: cannot merge %T into *HLL", b)
		}
		return x.Merge(y)
	default:
		return fmt.Errorf("sketch: unmergeable distinct counter %T", a)
	}
}

// Merge folds other into hh: the CountSketches add, the totals add, and
// the candidate dictionaries union (trimmed back to capacity by post-merge
// estimates, so coordinates that are heavy in the combined stream keep
// their slots). The result matches a single sketch over the concatenated
// streams up to candidate-eviction timing; Report re-estimates weights
// from the merged CountSketch, so reported values are unaffected.
func (hh *HeavyHitters) Merge(other *HeavyHitters) error {
	if other == nil || hh.phi != other.phi || hh.cap != other.cap {
		return fmt.Errorf("sketch: HeavyHitters parameter mismatch")
	}
	if err := hh.cs.Merge(other.cs); err != nil {
		return err
	}
	hh.total += other.total
	for _, id := range other.ids {
		if !hh.has(id) {
			hh.admit(id)
		}
	}
	if len(hh.ids) > hh.cap {
		hh.keepTop(hh.cap, nil)
	}
	return nil
}

// Merge folds other into c level by level. Both batteries must have been
// built with the same parameters and seed (equal samplers).
func (c *Contributing) Merge(other *Contributing) error {
	if other == nil || c.gamma != other.gamma || len(c.levels) != len(other.levels) {
		return fmt.Errorf("sketch: Contributing parameter mismatch")
	}
	for i := range c.levels {
		if c.levels[i].rate != other.levels[i].rate ||
			!c.levels[i].sampler.Equal(other.levels[i].sampler) {
			return fmt.Errorf("sketch: Contributing level %d mismatch", i)
		}
	}
	for i := range c.levels {
		if err := c.levels[i].hh.Merge(other.levels[i].hh); err != nil {
			return fmt.Errorf("sketch: Contributing level %d: %w", i, err)
		}
	}
	return nil
}

// Merge folds other into s by register-wise maximum. Both sketches must
// share precision and hash function.
func (s *HLL) Merge(other *HLL) error {
	if other == nil || s.p != other.p {
		return fmt.Errorf("sketch: HLL precision mismatch")
	}
	if !s.h.Equal(other.h) {
		return fmt.Errorf("sketch: HLL hash mismatch")
	}
	for i, r := range other.regs {
		if r > s.regs[i] {
			s.regs[i] = r
		}
	}
	s.adds += other.adds
	return nil
}
