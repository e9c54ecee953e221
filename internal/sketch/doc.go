// Package sketch implements the vector-sketching substrate the paper's
// algorithm is built on:
//
//   - L0 / distinct-element estimation (Theorem 2.12), as a bottom-k (KMV)
//     sketch — used by LargeCommon to measure the coverage of sampled set
//     collections and by LargeSetComplete to measure superset coverage.
//   - AMS F2 estimation (Alon–Matias–Szegedy), the second frequency moment,
//     used internally by the heavy-hitter machinery.
//   - F2 heavy hitters (Theorem 2.10): CountSketch plus an on-arrival
//     candidate dictionary, returning every φ-heavy coordinate with a
//     (1 ± 1/2)-approximate frequency.
//   - F2-contributing classes (Theorem 2.11, Indyk–Woodruff style): a
//     battery of subsampled heavy-hitter instances, one per guessed class
//     size 2^i, that surfaces a representative coordinate from every
//     γ-contributing class R_t = {j : 2^(t-1) < a[j] ≤ 2^t} with
//     |R_t|·2^(2t) ≥ γ·F2(a).
//
// All sketches are single-pass, insertion-only (CountSketch also accepts
// deletions), deterministic given their *rand.Rand, and report retained
// state via SpaceWords.
//
// # Space accounting
//
// The paper's results are space bounds (Θ̃(m/α²) words, etc.), so every
// sketch and streaming structure in this repository reports the number of
// machine words it actually retains — not Go heap size, which is
// dominated by allocator and header overheads. SpaceWords() int returns
// the 64-bit words of state retained at the moment of the call: the
// counters, stored (set, element) pairs, hash-function coefficients and
// candidate tables a careful C implementation would keep. Per-batch
// working memory holds nothing that survives the batch and is excluded.
package sketch
