package core

import (
	"encoding/binary"
	"fmt"

	"streamcover/internal/hash"
	"streamcover/internal/sketch"
)

// Snapshot codec for the full estimation pipeline. The top-level contract
// (used by the root facade's Estimator.Encode and the kcoverd checkpoint
// files) is asymmetric by design:
//
//   - AppendState serializes everything the stream changed — counters,
//     retained hash VALUES, stored pairs, dead flags — plus the structural
//     hash FUNCTIONS, so the blob is self-checking.
//   - RestoreState folds a blob into a FRESHLY CONSTRUCTED estimator with
//     the same dimensions, parameters and seed. Construction regenerates
//     every hash function deterministically; restore verifies the blob's
//     hashes against the construction's (catching snapshots from a
//     different seed or an incompatible code version) and adopts the data
//     state. A restored estimator is equivalent to the encoded one: same
//     future outputs under any further ProcessColumns/Merge/Result sequence,
//     same SpaceWords.
//
// Transient working memory — the BatchScratch and the heavy-hitter
// BatchMemory it lends to the sketches — is deliberately excluded,
// mirroring the SpaceWords contract: it holds nothing that survives a
// batch and is rebuilt lazily by the first ProcessColumns after restore.

// stateReader walks a state blob with bounds-checked reads.
type stateReader struct {
	data []byte
}

func (r *stateReader) uvarint(what string) (uint64, error) {
	v, w := binary.Uvarint(r.data)
	if w <= 0 {
		return 0, fmt.Errorf("core: snapshot: bad %s", what)
	}
	r.data = r.data[w:]
	return v, nil
}

// count reads a uvarint that must match an expected structural count.
func (r *stateReader) count(what string, want int) error {
	v, err := r.uvarint(what)
	if err != nil {
		return err
	}
	if v != uint64(want) {
		return fmt.Errorf("core: snapshot: %s = %d, construction has %d", what, v, want)
	}
	return nil
}

func (r *stateReader) byte(what string) (byte, error) {
	if len(r.data) < 1 {
		return 0, fmt.Errorf("core: snapshot: truncated %s", what)
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b, nil
}

func (r *stateReader) blob(what string) ([]byte, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data)) {
		return nil, fmt.Errorf("core: snapshot: truncated %s (%d of %d bytes)", what, len(r.data), n)
	}
	b := r.data[:n]
	r.data = r.data[n:]
	return b, nil
}

func appendBlob(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

func appendPolyState(buf []byte, p *hash.Poly) ([]byte, error) {
	b, err := p.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return appendBlob(buf, b), nil
}

// verifyPoly decodes a poly blob and checks it is the same function the
// construction drew — the snapshot's integrity anchor at every level.
func (r *stateReader) verifyPoly(what string, want *hash.Poly) error {
	b, err := r.blob(what)
	if err != nil {
		return err
	}
	var p hash.Poly
	if err := p.UnmarshalBinary(b); err != nil {
		return fmt.Errorf("core: snapshot: %s: %w", what, err)
	}
	if !p.Equal(want) {
		return fmt.Errorf("core: snapshot: %s differs from construction (different seed or version?)", what)
	}
	return nil
}

// Distinct-counter tags.
const (
	ctrL0  byte = 0
	ctrHLL byte = 1
)

func appendCounter(buf []byte, de sketch.DistinctCounter) ([]byte, error) {
	switch c := de.(type) {
	case *sketch.L0:
		b, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return appendBlob(append(buf, ctrL0), b), nil
	case *sketch.HLL:
		b, err := c.MarshalBinary()
		if err != nil {
			return nil, err
		}
		return appendBlob(append(buf, ctrHLL), b), nil
	default:
		return nil, fmt.Errorf("core: snapshot: unencodable distinct counter %T", de)
	}
}

// restoreCounter decodes a tagged counter blob and folds it into the
// freshly constructed (empty) counter via MergeDistinct, which verifies
// implementation and hash identity and, on an empty target, reproduces the
// decoded state exactly.
func (r *stateReader) restoreCounter(what string, into sketch.DistinctCounter) error {
	tag, err := r.byte(what + " tag")
	if err != nil {
		return err
	}
	b, err := r.blob(what)
	if err != nil {
		return err
	}
	var dec sketch.DistinctCounter
	switch tag {
	case ctrL0:
		s := new(sketch.L0)
		if err := s.UnmarshalBinary(b); err != nil {
			return fmt.Errorf("core: snapshot: %s: %w", what, err)
		}
		dec = s
	case ctrHLL:
		s := new(sketch.HLL)
		if err := s.UnmarshalBinary(b); err != nil {
			return fmt.Errorf("core: snapshot: %s: %w", what, err)
		}
		dec = s
	default:
		return fmt.Errorf("core: snapshot: unknown counter tag %d in %s", tag, what)
	}
	if err := sketch.MergeDistinct(into, dec); err != nil {
		return fmt.Errorf("core: snapshot: %s: %w", what, err)
	}
	return nil
}

// appendState serializes the case-I subroutine.
func (lc *LargeCommon) appendState(buf []byte) ([]byte, error) {
	buf, err := appendPolyState(buf, lc.h)
	if err != nil {
		return nil, err
	}
	buf = binary.AppendUvarint(buf, uint64(len(lc.layers)))
	for i := range lc.layers {
		if buf, err = appendCounter(buf, lc.layers[i].de); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (lc *LargeCommon) restoreState(r *stateReader) error {
	if err := r.verifyPoly("LargeCommon hash", lc.h); err != nil {
		return err
	}
	if err := r.count("LargeCommon layers", len(lc.layers)); err != nil {
		return err
	}
	for i := range lc.layers {
		if err := r.restoreCounter(fmt.Sprintf("LargeCommon layer %d", i), lc.layers[i].de); err != nil {
			return err
		}
	}
	return nil
}

// appendState serializes the case-II subroutine.
func (ls *LargeSet) appendState(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(ls.reps)))
	var err error
	for i := range ls.reps {
		rep := &ls.reps[i]
		if buf, err = appendPolyState(buf, rep.elemSamp); err != nil {
			return nil, err
		}
		if buf, err = appendPolyState(buf, rep.part.h); err != nil {
			return nil, err
		}
		buf = binary.AppendUvarint(buf, uint64(rep.part.q))
		for _, cntr := range []*sketch.Contributing{rep.cntrSmall, rep.cntrLarge} {
			b, err := cntr.AppendState(nil)
			if err != nil {
				return nil, err
			}
			buf = appendBlob(buf, b)
		}
		buf = binary.AppendUvarint(buf, uint64(len(rep.sampledIDs)))
		for _, id := range rep.sampledIDs {
			buf = binary.AppendUvarint(buf, id)
			if buf, err = appendCounter(buf, rep.sampled[id]); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func (ls *LargeSet) restoreState(r *stateReader) error {
	if err := r.count("LargeSet reps", len(ls.reps)); err != nil {
		return err
	}
	for i := range ls.reps {
		rep := &ls.reps[i]
		if err := r.verifyPoly("LargeSet element sampler", rep.elemSamp); err != nil {
			return err
		}
		if err := r.verifyPoly("LargeSet partition hash", rep.part.h); err != nil {
			return err
		}
		if err := r.count("LargeSet superset count", rep.part.q); err != nil {
			return err
		}
		for bi, cntr := range []*sketch.Contributing{rep.cntrSmall, rep.cntrLarge} {
			b, err := r.blob("LargeSet contributing battery")
			if err != nil {
				return err
			}
			if err := cntr.RestoreState(b); err != nil {
				return fmt.Errorf("core: snapshot: LargeSet rep %d battery %d: %w", i, bi, err)
			}
		}
		if err := r.count("LargeSet fallback sample", len(rep.sampledIDs)); err != nil {
			return err
		}
		for _, want := range rep.sampledIDs {
			id, err := r.uvarint("LargeSet sampled superset id")
			if err != nil {
				return err
			}
			if id != want {
				return fmt.Errorf("core: snapshot: LargeSet sampled superset %d, construction has %d", id, want)
			}
			if err := r.restoreCounter(fmt.Sprintf("LargeSet superset %d", id), rep.sampled[id]); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendPairs serializes a (set -> sampled elements) store sorted by set
// id, preserving per-set element order (greedy tie-breaking depends on it).
func appendPairs(buf []byte, pairs map[uint32][]uint32) []byte {
	ids := make([]uint32, 0, len(pairs))
	for id := range pairs {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort: stores are small
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		elems := pairs[id]
		buf = binary.AppendUvarint(buf, uint64(len(elems)))
		for _, e := range elems {
			buf = binary.AppendUvarint(buf, uint64(e))
		}
	}
	return buf
}

func (r *stateReader) readPairs(what string) (map[uint32][]uint32, error) {
	n, err := r.uvarint(what + " size")
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.data))+1 {
		return nil, fmt.Errorf("core: snapshot: implausible %s size %d", what, n)
	}
	pairs := make(map[uint32][]uint32, n)
	for i := uint64(0); i < n; i++ {
		id, err := r.uvarint(what + " set id")
		if err != nil {
			return nil, err
		}
		cnt, err := r.uvarint(what + " element count")
		if err != nil {
			return nil, err
		}
		if id > 1<<31 || cnt > uint64(len(r.data))+1 {
			return nil, fmt.Errorf("core: snapshot: implausible %s entry", what)
		}
		if _, dup := pairs[uint32(id)]; dup {
			return nil, fmt.Errorf("core: snapshot: duplicate %s set %d", what, id)
		}
		elems := make([]uint32, cnt)
		for j := range elems {
			e, err := r.uvarint(what + " element")
			if err != nil {
				return nil, err
			}
			if e > 1<<31 {
				return nil, fmt.Errorf("core: snapshot: implausible %s element %d", what, e)
			}
			elems[j] = uint32(e)
		}
		pairs[uint32(id)] = elems
	}
	return pairs, nil
}

// appendState serializes the case-III subroutine.
func (ss *SmallSet) appendState(buf []byte) ([]byte, error) {
	var err error
	for _, p := range []*hash.Poly{ss.setSamp, ss.pickSamp, ss.estSamp} {
		if buf, err = appendPolyState(buf, p); err != nil {
			return nil, err
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(ss.layers)))
	for i := range ss.layers {
		l := &ss.layers[i]
		if l.dead {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(l.count)) // zero; kept for format uniformity
			continue
		}
		buf = append(buf, 0)
		buf = binary.AppendUvarint(buf, uint64(l.count))
		buf = appendPairs(buf, l.pick)
		buf = appendPairs(buf, l.est)
	}
	return buf, nil
}

func (ss *SmallSet) restoreState(r *stateReader) error {
	for _, p := range []*hash.Poly{ss.setSamp, ss.pickSamp, ss.estSamp} {
		if err := r.verifyPoly("SmallSet sampler", p); err != nil {
			return err
		}
	}
	if err := r.count("SmallSet layers", len(ss.layers)); err != nil {
		return err
	}
	for i := range ss.layers {
		l := &ss.layers[i]
		dead, err := r.byte("SmallSet layer flag")
		if err != nil {
			return err
		}
		count, err := r.uvarint("SmallSet layer count")
		if err != nil {
			return err
		}
		if dead != 0 {
			if !l.dead {
				ss.kill(l)
			}
			l.count = int(count)
			continue
		}
		pick, err := r.readPairs("SmallSet pick store")
		if err != nil {
			return err
		}
		est, err := r.readPairs("SmallSet est store")
		if err != nil {
			return err
		}
		l.pick, l.est, l.count = pick, est, int(count)
	}
	return nil
}

// PersistentOracle is implemented by oracles whose full state can be
// snapshotted and restored (the built-in three-subroutine Oracle is one).
type PersistentOracle interface {
	CoverageOracle
	AppendState(buf []byte) ([]byte, error)
	RestoreState(r *stateReader) error
}

// AppendState serializes the three subroutines.
func (o *Oracle) AppendState(buf []byte) ([]byte, error) {
	for _, part := range []func([]byte) ([]byte, error){o.lc.appendState, o.ls.appendState, o.ss.appendState} {
		var err error
		if buf, err = part(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// RestoreState folds a snapshot into a freshly constructed oracle.
func (o *Oracle) RestoreState(r *stateReader) error {
	if err := o.lc.restoreState(r); err != nil {
		return err
	}
	if err := o.ls.restoreState(r); err != nil {
		return err
	}
	return o.ss.restoreState(r)
}

// AppendState appends the estimator's full mutable state to buf. The
// caller (the root facade, the kcoverd checkpoint writer) wraps it in a
// versioned envelope together with the construction parameters needed to
// rebuild the estimator before RestoreState.
func (est *Estimator) AppendState(buf []byte) ([]byte, error) {
	if est.trivial {
		return append(buf, 1), nil
	}
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(est.guesses)))
	var err error
	for gi := range est.guesses {
		g := &est.guesses[gi]
		buf = binary.AppendUvarint(buf, uint64(g.z))
		buf = binary.AppendUvarint(buf, uint64(len(g.reps)))
		for ri := range g.reps {
			rep := &g.reps[ri]
			if buf, err = appendPolyState(buf, rep.h); err != nil {
				return nil, err
			}
			po, ok := rep.oracle.(PersistentOracle)
			if !ok {
				return nil, fmt.Errorf("core: snapshot: oracle %T is not persistent", rep.oracle)
			}
			if buf, err = po.AppendState(buf); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// RestoreState folds a state blob written by AppendState into est, which
// must be freshly constructed with the same dimensions, parameters and
// seed. The whole blob must be consumed; structural or hash mismatches
// abort with an error and leave est in an undefined state (callers build
// a new estimator per attempt).
func (est *Estimator) RestoreState(data []byte) error {
	r := &stateReader{data: data}
	trivial, err := r.byte("estimator header")
	if err != nil {
		return err
	}
	if (trivial != 0) != est.trivial {
		return fmt.Errorf("core: snapshot: trivial-case mismatch")
	}
	if !est.trivial {
		if err := r.count("estimator guesses", len(est.guesses)); err != nil {
			return err
		}
		for gi := range est.guesses {
			g := &est.guesses[gi]
			if err := r.count("guess z", g.z); err != nil {
				return err
			}
			if err := r.count("guess reps", len(g.reps)); err != nil {
				return err
			}
			for ri := range g.reps {
				rep := &g.reps[ri]
				if err := r.verifyPoly("universe-reduction hash", rep.h); err != nil {
					return err
				}
				po, ok := rep.oracle.(PersistentOracle)
				if !ok {
					return fmt.Errorf("core: snapshot: oracle %T is not persistent", rep.oracle)
				}
				if err := po.RestoreState(r); err != nil {
					return fmt.Errorf("core: snapshot: guess %d rep %d: %w", gi, ri, err)
				}
			}
		}
	}
	if len(r.data) != 0 {
		return fmt.Errorf("core: snapshot: %d trailing bytes", len(r.data))
	}
	return nil
}
