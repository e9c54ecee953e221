package sketch

import (
	"bytes"
	"encoding/binary"
	"math"
)

// The v1 battery encoding's writers. Checkpoints no longer write it (see
// AppendState), but UnmarshalBinary and Restore still read it, so the
// tests keep its writers to produce v1 blobs.

// MarshalBinary encodes threshold, totals, the CountSketch at full width
// and the sorted candidates, each with a weight word: its estimate from
// the CountSketch, which UnmarshalBinary ignores.
func (hh *HeavyHitters) MarshalBinary() ([]byte, error) {
	ids, err := hh.candidates()
	if err != nil {
		return nil, err
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

// MarshalBinary encodes the battery level by level: sampling rate,
// sampler hash and the level's v1 heavy-hitter blob.
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
