package streamcover

import (
	"encoding/binary"
	"fmt"
	"math"

	"streamcover/internal/core"
	"streamcover/internal/snapshot"
)

// Encode serializes the estimator — dimensions, resolved options and full
// sketch state — into a self-contained, checksummed blob. DecodeEstimator
// rebuilds an estimator that is behaviorally identical to this one: same
// future outputs under any further Process/Merge/Result sequence, same
// SpaceWords. The blob captures the options the facade exposes (seed,
// repetitions, guess base, distinct-count backend); decoding verifies
// every hash function against a fresh same-seed construction, so a blob
// from an incompatible build fails loudly rather than estimating quietly.
//
// Encode must not be called concurrently with Process.
func (e *Estimator) Encode() ([]byte, error) {
	e.flush()
	buf := make([]byte, 0, 1<<16)
	buf = binary.AppendUvarint(buf, uint64(e.m))
	buf = binary.AppendUvarint(buf, uint64(e.n))
	buf = binary.AppendUvarint(buf, uint64(e.k))
	buf = binary.AppendUvarint(buf, math.Float64bits(e.alpha))
	buf = binary.AppendVarint(buf, e.cfg.seed)
	buf = binary.AppendUvarint(buf, uint64(e.cfg.params.Reps))
	buf = binary.AppendUvarint(buf, math.Float64bits(e.cfg.params.ZBase))
	if e.cfg.params.UseHLL {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(e.edges))
	state, err := e.inner.AppendState(buf)
	if err != nil {
		return nil, fmt.Errorf("streamcover: encode: %w", err)
	}
	return snapshot.Seal(state), nil
}

// DecodeEstimator rebuilds an estimator from an Encode blob. It reads
// only the current encoding (v2, whose sketches hold only their stored
// counters), the one Encode writes.
func DecodeEstimator(data []byte) (*Estimator, error) {
	payload, err := snapshot.Open(data)
	if err != nil {
		return nil, fmt.Errorf("streamcover: decode: %w", err)
	}
	next := func(what string) (uint64, error) {
		v, w := binary.Uvarint(payload)
		if w <= 0 {
			return 0, fmt.Errorf("streamcover: decode: bad %s", what)
		}
		payload = payload[w:]
		return v, nil
	}
	m, err := next("m")
	if err != nil {
		return nil, err
	}
	n, err := next("n")
	if err != nil {
		return nil, err
	}
	k, err := next("k")
	if err != nil {
		return nil, err
	}
	alphaBits, err := next("alpha")
	if err != nil {
		return nil, err
	}
	seed, w := binary.Varint(payload)
	if w <= 0 {
		return nil, fmt.Errorf("streamcover: decode: bad seed")
	}
	payload = payload[w:]
	reps, err := next("repetitions")
	if err != nil {
		return nil, err
	}
	zbaseBits, err := next("guess base")
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, fmt.Errorf("streamcover: decode: truncated backend flag")
	}
	useHLL := payload[0] != 0
	payload = payload[1:]
	edges, err := next("edge count")
	if err != nil {
		return nil, err
	}
	if m > 1<<31 || n > 1<<31 || k > 1<<31 || reps > 1<<20 || edges > 1<<62 {
		return nil, fmt.Errorf("streamcover: decode: implausible header")
	}

	// Reconstruct the option list so the decoded estimator clones and
	// merges exactly like one built by the original caller.
	opts := []Option{WithSeed(seed), WithRepetitions(int(reps)), WithGuessBase(math.Float64frombits(zbaseBits))}
	if useHLL {
		opts = append(opts, WithHLLBackend())
	}
	alpha := math.Float64frombits(alphaBits)
	// Construction allocates every (guess, repetition) unit the header
	// claims, so check the claim against the blob first.
	if least := core.MinStateBytes(int(m), int(n), int(k), alpha, newConfig(opts).params); len(payload) < least {
		return nil, fmt.Errorf("streamcover: decode: header claims state of at least %d bytes, blob holds %d", least, len(payload))
	}
	est, err := NewEstimator(int(m), int(n), int(k), alpha, opts...)
	if err != nil {
		return nil, fmt.Errorf("streamcover: decode: %w", err)
	}
	if err := est.inner.RestoreState(payload); err != nil {
		return nil, fmt.Errorf("streamcover: decode: %w", err)
	}
	est.edges = int(edges)
	return est, nil
}
