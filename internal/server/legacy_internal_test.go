package server

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"streamcover"
	"streamcover/internal/snapshot"
	"streamcover/internal/wire"
)

// legacyShard is the edge-shard hash of a kcoverd that split each session
// across w same-seed estimators: edge (set, elem) went to estimator
// splitmix64(set<<32 | elem) mod w.
func legacyShard(set, elem uint32, w int) int {
	x := uint64(set)<<32 | uint64(elem)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int((x ^ (x >> 31)) % uint64(w))
}

// TestRecoverLegacyMultiPartCheckpoint recovers a session directory in the
// layout of a kcoverd that kept two shard estimators per session: a
// 2-part checkpoint (one sealed encoding per shard) plus a WAL tail of
// sequenced batches. Recovery merges the parts into the one estimator and
// replays the tail into it; the answer must equal the old layout's —
// both shards' clones merged — and the edge count must be checkpoint plus
// tail.
func TestRecoverLegacyMultiPartCheckpoint(t *testing.T) {
	const (
		name    = "legacy"
		m, n, k = 200, 2000, 5
		alpha   = 4.0
		seed    = int64(7)
		batch   = 500
		source  = uint64(42)
	)
	rng := rand.New(rand.NewSource(3))
	batches := make([][2][]uint32, 18) // 12 before the checkpoint, 6 in the WAL tail
	for i := range batches {
		for j := 0; j < batch; j++ {
			batches[i][0] = append(batches[i][0], uint32(rng.Intn(m)))
			batches[i][1] = append(batches[i][1], uint32(rng.Intn(n)))
		}
	}
	const headBatches = 12

	var shards [2]*streamcover.Estimator
	for i := range shards {
		est, err := streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = est
	}
	feed := func(sets, elems []uint32) {
		var split [2][2][]uint32
		for j, set := range sets {
			i := legacyShard(set, elems[j], len(shards))
			split[i][0] = append(split[i][0], set)
			split[i][1] = append(split[i][1], elems[j])
		}
		for i, cols := range split {
			if err := shards[i].ProcessColumns(cols[0], cols[1]); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, b := range batches[:headBatches] {
		feed(b[0], b[1])
	}
	parts := make([][]byte, len(shards))
	for i, est := range shards {
		c, err := est.Clone() // the old checkpoint encoded per-shard clones
		if err != nil {
			t.Fatal(err)
		}
		if parts[i], err = c.Encode(); err != nil {
			t.Fatal(err)
		}
	}
	d, err := openDurability(t.TempDir(), name, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := encodeCheckpoint(checkpointState{
		name: name, m: m, n: n, k: k, alpha: alpha, seed: seed,
		dedup: map[uint64]uint64{source: headBatches}, parts: parts,
	})
	if err := snapshot.WriteFileFS(d.fs, filepath.Join(d.dir, checkpointFile), payload); err != nil {
		t.Fatal(err)
	}
	for i, b := range batches[headBatches:] {
		rec := append([]byte{wire.TIngestSeq},
			wire.EncodeIngestSeqColumns(nil, name, source, uint64(headBatches+i+1), b[0], b[1], m, n)...)
		if _, err := d.wal.Append(rec); err != nil {
			t.Fatal(err)
		}
		feed(b[0], b[1])
	}
	d.close()

	// The old query: clone every shard and merge the clones.
	want, err := shards[0].Clone()
	if err != nil {
		t.Fatal(err)
	}
	other, err := shards[1].Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Merge(other); err != nil {
		t.Fatal(err)
	}
	wantRes := want.Result()

	sess, err := recoverSession(d.dir, Config{}.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sess.close()
		sess.dur.close()
	}()
	got, err := sess.query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges != len(batches)*batch {
		t.Fatalf("recovered %d edges, want checkpoint %d + tail %d", got.Edges,
			headBatches*batch, (len(batches)-headBatches)*batch)
	}
	if got.Coverage != wantRes.Coverage || got.Feasible != wantRes.Feasible || !reflect.DeepEqual(got.SetIDs, wantRes.SetIDs) {
		t.Fatalf("recovered answer (%v, %v, %v), old two-shard merged answer (%v, %v, %v)",
			got.Coverage, got.Feasible, got.SetIDs, wantRes.Coverage, wantRes.Feasible, wantRes.SetIDs)
	}
	sess.dmu.Lock()
	horizon := sess.dedup[source].seq
	sess.dmu.Unlock()
	if horizon != uint64(len(batches)) {
		t.Fatalf("recovered dedup horizon %d, want %d", horizon, len(batches))
	}
}

// TestRecoverV1Checkpoint recovers a session directory written before
// estimator encoding v2: a checkpoint sealed as version 1 around the v1
// golden estimator blob (testdata/golden_v1_checkpoint.bin.gz, the
// seed-13 estimator over 6000 uniform edges), plus a WAL tail. The
// session must answer like an in-process estimator fed the same stream,
// charge 8 × SpaceWords against the budget, and write its next checkpoint
// as v2, byte-equal to the in-process estimator's encoding.
func TestRecoverV1Checkpoint(t *testing.T) {
	const (
		name    = "v1"
		m, n, k = 24, 100, 2
		alpha   = 4.0
		seed    = int64(13)
		source  = uint64(9)
	)
	zr, err := os.Open(filepath.Join("..", "..", "testdata", "golden_v1_checkpoint.bin.gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer zr.Close()
	gz, err := gzip.NewReader(zr)
	if err != nil {
		t.Fatal(err)
	}
	v1blob, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}

	// The fixture's estimator, rebuilt in process: the golden stream is
	// 6000 edges drawn Set-then-Elem from seed 31, in one batch.
	ref, err := streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	golden := make([]streamcover.Edge, 6000)
	for i := range golden {
		golden[i] = streamcover.Edge{Set: uint32(rng.Intn(m)), Elem: uint32(rng.Intn(n))}
	}
	if err := ref.ProcessBatch(golden); err != nil {
		t.Fatal(err)
	}

	d, err := openDurability(t.TempDir(), name, 0, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	sealed := snapshot.Seal(encodeCheckpoint(checkpointState{
		name: name, m: m, n: n, k: k, alpha: alpha, seed: seed,
		dedup: map[uint64]uint64{}, parts: [][]byte{v1blob},
	}))
	sealed[4] = 1 // a v1 kcoverd sealed its checkpoints as version 1
	if err := os.WriteFile(filepath.Join(d.dir, checkpointFile), sealed, 0o644); err != nil {
		t.Fatal(err)
	}
	tail := rand.New(rand.NewSource(32))
	for i := 0; i < 4; i++ {
		var sets, elems []uint32
		for j := 0; j < 300; j++ {
			sets = append(sets, uint32(tail.Intn(m)))
			elems = append(elems, uint32(tail.Intn(n)))
		}
		rec := append([]byte{wire.TIngestSeq},
			wire.EncodeIngestSeqColumns(nil, name, source, uint64(i+1), sets, elems, m, n)...)
		if _, err := d.wal.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := ref.ProcessColumns(sets, elems); err != nil {
			t.Fatal(err)
		}
	}
	d.close()

	sess, err := recoverSession(d.dir, Config{}.withDefaults(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sess.close()
		sess.dur.close()
	}()
	want, err := ref.Clone()
	if err != nil {
		t.Fatal(err)
	}
	wantRes := want.Result()
	got, err := sess.query(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges != ref.Edges() || got.Coverage != wantRes.Coverage || got.Feasible != wantRes.Feasible ||
		got.SpaceWords != wantRes.SpaceWords || !reflect.DeepEqual(got.SetIDs, wantRes.SetIDs) {
		t.Fatalf("recovered answer %+v, in-process reference %+v over %d edges", got, wantRes, ref.Edges())
	}
	if rb, want := sess.residentBytes.Load(), 8*int64(ref.SpaceWords()); rb != want {
		t.Fatalf("recovered session charges %d bytes, want 8 × SpaceWords = %d", rb, want)
	}

	if err := sess.checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	payload, err := snapshot.ReadFile(filepath.Join(d.dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.parts) != 1 || st.parts[0][4] != snapshot.Version || !bytes.Equal(st.parts[0], wantBlob) {
		t.Fatalf("next checkpoint is not the reference's v2 encoding (%d parts, %d vs %d bytes)",
			len(st.parts), len(st.parts[0]), len(wantBlob))
	}
	if rb, want := sess.residentBytes.Load(), 8*int64(ref.SpaceWords()); rb != want {
		t.Fatalf("checkpointed session charges %d bytes, want %d", rb, want)
	}
}
