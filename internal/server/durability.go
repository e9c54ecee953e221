package server

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streamcover"
	"streamcover/internal/fault"
	"streamcover/internal/snapshot"
	"streamcover/internal/stream"
	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

// durability is one session's crash-safety state: a checkpoint snapshot
// of the session's estimator plus a WAL of the batches acknowledged since.
//
// The invariant tying the two together: an ingest holds pmu.RLock across
// its dedup update, WAL append and queue dispatch, and a checkpoint holds
// pmu.Lock while it reads the WAL position, copies the dedup map and
// enqueues a clone request on the apply queue. Everything logged at or
// below the recorded position is therefore already in the queue ahead of
// the clone request, so the snapshot contains exactly the WAL prefix it
// claims to — recovery restores the snapshot and replays only the tail.
type durability struct {
	dir string
	wal *wal.Log
	fs  fault.FS // filesystem checkpoints write through (faults injectable)

	pmu    sync.RWMutex // ingest RLock / checkpoint Lock
	ckptMu sync.Mutex   // serializes whole checkpoints (ticker, HTTP, shutdown)

	// appendFn, when non-nil, replaces wal.Append on the overlapped ingest
	// path. Tests inject stalls (to prove the ack waits for durability) and
	// failures (to prove a failed append poisons the session).
	appendFn func(rec []byte) (uint64, error)

	lastCkptNanos atomic.Int64  // wall clock of the last completed checkpoint
	ckptPos       atomic.Uint64 // last WAL position folded into the snapshot
}

const checkpointFile = "checkpoint.scsn"

// sessionDirName maps a session name to a filesystem-safe directory name.
// Unsafe bytes are masked and an FNV-64a of the full name keeps distinct
// sessions distinct; the authoritative name lives inside the checkpoint.
func sessionDirName(name string) string {
	h := fnv.New64a()
	h.Write([]byte(name))
	safe := make([]byte, 0, 64)
	for i := 0; i < len(name) && len(safe) < 64; i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '.', c == '_':
			safe = append(safe, c)
		default:
			safe = append(safe, '_')
		}
	}
	return fmt.Sprintf("s-%s-%016x", safe, h.Sum64())
}

// openDurability prepares (or reopens) a session's data directory,
// sweeping any checkpoint temp files a crashed writer left behind.
func openDurability(dataDir, name string, segBytes int64, noSync bool, fsys fault.FS) (*durability, error) {
	if fsys == nil {
		fsys = fault.OS()
	}
	dir := filepath.Join(dataDir, sessionDirName(name))
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if _, err := snapshot.SweepTemps(fsys, dir, checkpointFile); err != nil {
		return nil, err
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: segBytes, NoSync: noSync, FS: fsys})
	if err != nil {
		return nil, err
	}
	return &durability{dir: dir, wal: log, fs: fsys}, nil
}

func (d *durability) close() {
	if d == nil {
		return
	}
	d.wal.Close()
}

// destroy closes the WAL and removes the session's data directory (the
// session was deleted; recovery must not resurrect it).
func (d *durability) destroy() {
	if d == nil {
		return
	}
	d.wal.Close()
	os.RemoveAll(d.dir)
}

// checkpointState is the decoded form of a checkpoint.scsn payload.
type checkpointState struct {
	name    string
	m, n, k int
	alpha   float64
	seed    int64
	walPos  uint64
	dedup   map[uint64]uint64
	// parts holds sealed Estimator.Encode blobs: one, or one per shard
	// estimator in a checkpoint from a kcoverd that split each session
	// across several (estimatorFromCheckpoint merges those).
	parts [][]byte
}

// size is the checkpoint's summed estimator encoding — the session's
// serialized size, which the overseer charges against the memory budget.
func (st *checkpointState) size() int64 {
	var n int64
	for _, p := range st.parts {
		n += int64(len(p))
	}
	return n
}

// encodeCheckpoint serializes a checkpoint payload (the caller seals it).
// Dedup entries are sorted by source so equal states encode equally.
func encodeCheckpoint(st checkpointState) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(st.name)))
	buf = append(buf, st.name...)
	buf = binary.AppendUvarint(buf, uint64(st.m))
	buf = binary.AppendUvarint(buf, uint64(st.n))
	buf = binary.AppendUvarint(buf, uint64(st.k))
	buf = binary.AppendUvarint(buf, math.Float64bits(st.alpha))
	buf = binary.AppendVarint(buf, st.seed)
	buf = binary.AppendUvarint(buf, st.walPos)
	sources := make([]uint64, 0, len(st.dedup))
	for src := range st.dedup {
		sources = append(sources, src)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	buf = binary.AppendUvarint(buf, uint64(len(sources)))
	for _, src := range sources {
		buf = binary.AppendUvarint(buf, src)
		buf = binary.AppendUvarint(buf, st.dedup[src])
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.parts)))
	for _, p := range st.parts {
		buf = binary.AppendUvarint(buf, uint64(len(p)))
		buf = append(buf, p...)
	}
	return buf
}

// decodeCheckpoint parses a checkpoint payload.
func decodeCheckpoint(data []byte) (checkpointState, error) {
	var st checkpointState
	bad := func(what string) (checkpointState, error) {
		return st, fmt.Errorf("server: corrupt checkpoint: bad %s", what)
	}
	next := func() (uint64, bool) {
		v, w := binary.Uvarint(data)
		if w <= 0 {
			return 0, false
		}
		data = data[w:]
		return v, true
	}
	nameLen, ok := next()
	if !ok || nameLen > wire.MaxName || uint64(len(data)) < nameLen {
		return bad("name")
	}
	st.name = string(data[:nameLen])
	data = data[nameLen:]
	for _, dst := range []*int{&st.m, &st.n, &st.k} {
		v, ok := next()
		if !ok || v > 1<<31 {
			return bad("dims")
		}
		*dst = int(v)
	}
	alphaBits, ok := next()
	if !ok {
		return bad("alpha")
	}
	st.alpha = math.Float64frombits(alphaBits)
	seed, w := binary.Varint(data)
	if w <= 0 {
		return bad("seed")
	}
	data = data[w:]
	st.seed = seed
	if st.walPos, ok = next(); !ok {
		return bad("wal position")
	}
	nDedup, ok := next()
	if !ok || nDedup > uint64(len(data)) {
		return bad("dedup count")
	}
	st.dedup = make(map[uint64]uint64, nDedup)
	for i := uint64(0); i < nDedup; i++ {
		src, ok := next()
		if !ok {
			return bad("dedup source")
		}
		seq, ok := next()
		if !ok {
			return bad("dedup sequence")
		}
		if _, dup := st.dedup[src]; dup {
			return bad("duplicate dedup source")
		}
		st.dedup[src] = seq
	}
	nParts, ok := next()
	if !ok || nParts == 0 || nParts > 1<<16 {
		return bad("part count")
	}
	st.parts = make([][]byte, 0, nParts)
	for i := uint64(0); i < nParts; i++ {
		l, ok := next()
		if !ok || uint64(len(data)) < l {
			return bad("estimator blob")
		}
		st.parts = append(st.parts, data[:l])
		data = data[l:]
	}
	if len(data) != 0 {
		return bad("trailing bytes")
	}
	return st, nil
}

// checkpoint snapshots the session atomically: freeze ingest, record the
// WAL position and dedup map, enqueue a clone request behind every queued
// batch, unfreeze, then encode and write the snapshot off the ingest path
// and drop WAL segments the snapshot has subsumed.
//
// An evicted session needs no checkpoint — the checkpoint file on disk IS
// its entire state (eviction wrote it before stopping the apply), so the
// cadence ticker and CheckpointAll skip it rather than rehydrate it.
func (s *session) checkpoint(metrics *Metrics) error {
	s.resMu.RLock()
	defer s.resMu.RUnlock()
	if s.evicted {
		return nil
	}
	return s.checkpointLocked(metrics)
}

// checkpointLocked is checkpoint's body, for callers that already hold a
// side of resMu and know the session is hydrated (eviction holds the write
// side and checkpoints as its first step).
func (s *session) checkpointLocked(metrics *Metrics) error {
	d := s.dur
	if d == nil {
		return nil
	}
	if err := s.begin(); err != nil {
		return err
	}
	defer s.ops.Done()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	start := time.Now()

	d.pmu.Lock()
	pos := d.wal.LastPos()
	s.dmu.Lock()
	dedup := make(map[uint64]uint64, len(s.dedup))
	for src, e := range s.dedup {
		// Under pmu.Lock no ingest is mid-flight, so every entry is
		// settled; only the sequence horizon goes into the snapshot.
		dedup[src] = e.seq
	}
	s.dmu.Unlock()
	reply := s.requestClone()
	d.pmu.Unlock()

	rep := <-reply
	if rep.err != nil {
		return rep.err
	}
	blob, err := rep.est.Encode()
	if err != nil {
		return err
	}
	payload := encodeCheckpoint(checkpointState{
		name: s.name, m: s.m, n: s.n, k: s.k, alpha: s.alpha, seed: s.seed,
		walPos: pos, dedup: dedup, parts: [][]byte{blob},
	})
	if err := snapshot.WriteFileFS(d.fs, filepath.Join(d.dir, checkpointFile), payload); err != nil {
		return err
	}
	if err := d.wal.TruncateBefore(pos + 1); err != nil {
		return err
	}
	d.ckptPos.Store(pos)
	d.lastCkptNanos.Store(time.Now().UnixNano())
	// The estimator blob is the session's real serialized size — the
	// budget the overseer charges it against while hydrated.
	s.setResidentBytes(int64(len(blob)))
	if metrics != nil {
		metrics.Checkpoints.Add(1)
		metrics.CheckpointNanos.Add(time.Since(start).Nanoseconds())
	}
	return nil
}

// recoverSession rebuilds one session from its data directory: decode the
// checkpoint's estimator, then replay the WAL tail into it one batch per
// record, as the live server applies them. Returns nil (no
// error) for directories without a checkpoint — a crash between directory
// creation and the initial checkpoint left nothing acknowledged to lose.
// Checkpoint temp files orphaned by a crash mid-write are swept first.
func recoverSession(dir string, cfg Config, metrics *Metrics) (*session, error) {
	fsys := cfg.FS
	if fsys == nil {
		fsys = fault.OS()
	}
	if _, err := snapshot.SweepTemps(fsys, dir, checkpointFile); err != nil {
		return nil, fmt.Errorf("server: %s: %w", dir, err)
	}
	st, ok, err := loadCheckpoint(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", dir, err)
	}
	if !ok {
		return nil, nil
	}
	est, err := estimatorFromCheckpoint(st, cfg.arena)
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", dir, err)
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: cfg.WALSegmentBytes, NoSync: cfg.WALNoSync, FS: fsys})
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", dir, err)
	}
	if err := replayTail(log, &st, est, metrics); err != nil {
		log.Close()
		return nil, fmt.Errorf("server: %s: wal replay: %w", dir, err)
	}
	edges := int64(est.Edges()) // read before the apply goroutine owns est
	d := &durability{dir: dir, wal: log, fs: fsys}
	d.ckptPos.Store(st.walPos)
	d.lastCkptNanos.Store(time.Now().UnixNano())
	sess := newSessionWith(st.name, st.m, st.n, st.k, st.alpha, st.seed, cfg.QueueDepth, metrics, est)
	sess.dur = d
	if cfg.RetryMin > 0 {
		sess.retryMin = cfg.RetryMin
	}
	if cfg.RetryMax > 0 {
		sess.retryMax = cfg.RetryMax
	}
	sess.dedup = make(map[uint64]dedupEntry, len(st.dedup))
	for src, seq := range st.dedup {
		sess.dedup[src] = dedupEntry{seq: seq}
	}
	sess.edges.Store(edges)
	// Seed the resident footprint from the snapshot we just restored; the
	// caller attaches the overseer (none exists yet here) and folds this
	// into the budget total.
	sess.residentBytes.Store(st.size())
	return sess, nil
}

// loadCheckpoint reads and decodes a session directory's checkpoint.
// ok=false (no error) means the directory has none — a crash between
// directory creation and the initial checkpoint.
func loadCheckpoint(fsys fault.FS, dir string) (checkpointState, bool, error) {
	payload, err := snapshot.ReadFileFS(fsys, filepath.Join(dir, checkpointFile))
	if os.IsNotExist(err) {
		return checkpointState{}, false, nil
	}
	if err != nil {
		return checkpointState{}, false, err
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return checkpointState{}, false, err
	}
	return st, true, nil
}

// replayTail replays the WAL tail past st.walPos into est, one
// ProcessColumns per record exactly as the live apply does, advancing
// st.dedup to the replayed horizon. Shared by crash recovery, rehydration
// and promotion: an evicted session's parked WAL replays through the
// identical code, so a rehydrated estimator is bit-identical to one that
// was never evicted.
func replayTail(log *wal.Log, st *checkpointState, est *streamcover.Estimator, metrics *Metrics) error {
	start := time.Now()
	var batches, edgesReplayed int64
	var cols stream.Columns // reused decode arena across the whole tail
	err := log.Replay(st.walPos+1, func(pos uint64, rec []byte) error {
		source, seq, err := decodeWALRecord(rec, st.name, st.m, st.n, &cols)
		if err != nil {
			return fmt.Errorf("record %d: %w", pos, err)
		}
		if source != 0 {
			if seq <= st.dedup[source] {
				return nil // duplicate was logged and skipped live, skip again
			}
			st.dedup[source] = seq
		}
		if err := est.ProcessColumns(cols.Sets, cols.Elems); err != nil {
			return fmt.Errorf("record %d: %w", pos, err)
		}
		batches++
		edgesReplayed += int64(cols.Len())
		return nil
	})
	if err != nil {
		return err
	}
	if metrics != nil {
		metrics.ReplayBatches.Add(batches)
		metrics.ReplayEdges.Add(edgesReplayed)
		metrics.ReplayNanos.Add(time.Since(start).Nanoseconds())
	}
	return nil
}

// estimatorFromCheckpoint decodes a checkpoint's estimator. A checkpoint
// written by a kcoverd that split each session across several same-seed
// shard estimators holds one part per shard; those parts merge into the
// one estimator, a correct summary of the union of their shards
// (internal/core/merge.go). The decoded estimator runs its batch engine at
// the facade default and draws batch scratch from arena.
func estimatorFromCheckpoint(st checkpointState, arena *streamcover.InternArena) (*streamcover.Estimator, error) {
	var est *streamcover.Estimator
	for i, part := range st.parts {
		p, err := streamcover.DecodeEstimator(part)
		if err != nil {
			return nil, fmt.Errorf("checkpoint part %d: %w", i, err)
		}
		if est == nil {
			est = p
		} else if err := est.Merge(p); err != nil {
			return nil, fmt.Errorf("merging checkpoint parts: %w", err)
		}
	}
	est.SetInternArena(arena)
	return est, nil
}

// decodeWALRecord parses one logged batch into cols: a frame-type byte
// followed by the original wire payload, whose blob may carry either the
// row or the columnar layout (the fused decoder sniffs the magic; a WAL
// may mix both, since it stores payloads verbatim). source is 0 for
// unsequenced batches.
func decodeWALRecord(rec []byte, wantName string, wantM, wantN int, cols *stream.Columns) (source, seq uint64, err error) {
	if len(rec) == 0 {
		return 0, 0, fmt.Errorf("empty record")
	}
	var name string
	var m, n int
	switch rec[0] {
	case wire.TIngest:
		name, m, n, err = wire.DecodeIngestInto(rec[1:], cols)
	case wire.TIngestSeq:
		name, source, seq, m, n, err = wire.DecodeIngestSeqInto(rec[1:], cols)
	default:
		return 0, 0, fmt.Errorf("unknown record type 0x%02x", rec[0])
	}
	if err != nil {
		return 0, 0, err
	}
	if name != wantName || m != wantM || n != wantN {
		return 0, 0, fmt.Errorf("record for session %q dims (%d,%d), want %q (%d,%d)",
			name, m, n, wantName, wantM, wantN)
	}
	return source, seq, nil
}
