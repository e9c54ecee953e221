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

// openDurability prepares (or reopens) a session's data directory, durably,
// sweeping any checkpoint temp files a crashed writer left behind. A
// failure once the directory is made removes it again, best effort.
func openDurability(dataDir, name string, segBytes int64, noSync bool, fsys fault.FS) (*durability, error) {
	if fsys == nil {
		fsys = fault.OS()
	}
	d := &durability{dir: filepath.Join(dataDir, sessionDirName(name)), fs: fsys}
	if err := fsys.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	// dataDir holds the new entry; unsynced, a power loss can drop the session.
	err := fsys.SyncDir(dataDir)
	if err == nil {
		_, err = snapshot.SweepTemps(fsys, d.dir, checkpointFile)
	}
	if err == nil {
		d.wal, err = wal.Open(filepath.Join(d.dir, "wal"), wal.Options{SegmentBytes: segBytes, NoSync: noSync, FS: fsys})
	}
	if err != nil {
		_ = removeSessionDir(fsys, d.dir) // best effort: err fails the create either way
		return nil, err
	}
	return d, nil
}

func (d *durability) close() {
	if d == nil {
		return
	}
	d.wal.Close()
}

// destroy closes the WAL and removes the session's data directory, durably
// (the session was deleted; recovery must not resurrect it).
func (d *durability) destroy() error {
	if d == nil {
		return nil
	}
	d.wal.Close()
	return removeSessionDir(d.fs, d.dir)
}

// removeSessionDir removes a session directory and fsyncs the data
// directory that held its entry: unsynced, a power loss can bring the
// session back, or leave it half removed.
func removeSessionDir(fsys fault.FS, dir string) error {
	if err := fsys.RemoveAll(dir); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(dir))
}

// checkpointState is the decoded form of a checkpoint.scsn payload.
type checkpointState struct {
	name    string
	m, n, k int
	alpha   float64
	seed    int64
	walPos  uint64
	dedup   map[uint64]uint64
	est     []byte // the session's sealed Estimator.Encode blob; nil if it took no edge
}

// encodeCheckpoint serializes a checkpoint payload (the caller seals it).
// Dedup entries are sorted by source so equal states encode equally. An
// estimator count follows: 0 and no blob for an estimator that has taken
// no edge, which the parameters alone rebuild (checkpointState.estimator),
// else 1 and the blob. Checkpoints of kcoverds that split a session into
// shard estimators held one blob per shard.
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
	if len(st.est) == 0 {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, 1)
	buf = binary.AppendUvarint(buf, uint64(len(st.est)))
	return append(buf, st.est...)
}

// decodeCheckpoint parses a checkpoint payload. Its errors do not name
// where the payload came from; callers add that.
func decodeCheckpoint(data []byte) (checkpointState, error) {
	var st checkpointState
	bad := func(what string) (checkpointState, error) {
		return st, fmt.Errorf("corrupt checkpoint: bad %s", what)
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
	nEst, ok := next()
	if !ok {
		return bad("estimator count")
	}
	switch nEst {
	case 0: // an estimator that had taken no edge: the parameters rebuild it
	case 1:
		l, ok := next()
		if !ok || l == 0 || uint64(len(data)) < l {
			return bad("estimator blob")
		}
		st.est, data = data[:l], data[l:]
	default:
		return st, fmt.Errorf("checkpoint holds %d estimators, want 0 or 1 (shard-era checkpoints are not read)", nEst)
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
// cadence ticker and CheckpointAll skip it rather than rehydrate it. A
// closed session refuses.
func (s *session) checkpoint(metrics *Metrics) error {
	s.resMu.RLock()
	defer s.resMu.RUnlock()
	switch s.state {
	case stateEvicted:
		return nil
	case stateClosed:
		return s.errClosed()
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
	var snap *streamcover.Estimator
	var err error
	cloned := s.onApply(func(est *streamcover.Estimator) { snap, err = est.Clone() })
	d.pmu.Unlock()

	<-cloned
	if err != nil {
		return err
	}
	if err := s.writeCheckpoint(snap, pos, dedup, metrics, start); err != nil {
		return err
	}
	s.setResidentBytes(residentCharge(snap))
	return nil
}

// writeCheckpoint writes est, which the caller owns, as the checkpoint at
// WAL position pos and drops the WAL segments it subsumes. Figure 1 draws
// every hash function before the first edge, so an estimator that has
// taken no edge is a pure function of the session's parameters: its
// checkpoint holds no blob. The caller holds ckptMu or owns the session
// outright.
func (s *session) writeCheckpoint(est *streamcover.Estimator, pos uint64, dedup map[uint64]uint64, metrics *Metrics, start time.Time) error {
	d := s.dur
	var blob []byte
	if est.Edges() > 0 {
		var err error
		if blob, err = est.Encode(); err != nil {
			return err
		}
	}
	payload := encodeCheckpoint(checkpointState{
		name: s.name, m: s.m, n: s.n, k: s.k, alpha: s.alpha, seed: s.seed,
		walPos: pos, dedup: dedup, est: blob,
	})
	if err := snapshot.WriteFileFS(d.fs, filepath.Join(d.dir, checkpointFile), payload); err != nil {
		return err
	}
	if err := d.wal.TruncateBefore(pos + 1); err != nil {
		return err
	}
	d.ckptPos.Store(pos)
	d.lastCkptNanos.Store(time.Now().UnixNano())
	if metrics != nil {
		metrics.Checkpoints.Add(1)
		metrics.CheckpointNanos.Add(time.Since(start).Nanoseconds())
	}
	return nil
}

// residentCharge is what a hydrated session's estimator counts against
// the memory budget: 8 bytes per word of its SpaceWords, the paper's
// space accounting, which follows the live state and not the size of any
// encoding. It reads est without finalizing it, so the caller must own
// est (a checkpoint's clone, or an estimator no apply goroutine runs yet).
func residentCharge(est *streamcover.Estimator) int64 {
	return 8 * int64(est.SpaceWords())
}

// recoverSession rebuilds one session from its data directory: restore
// the checkpoint's estimator (decoded, or built fresh from the parameters
// of a session that had taken no edge), then replay the WAL tail into it
// one batch per record, as the live server applies them. Returns nil (no
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
		return nil, fmt.Errorf("server: %w", err)
	}
	if !ok {
		return nil, nil
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{SegmentBytes: cfg.WALSegmentBytes, NoSync: cfg.WALNoSync, FS: fsys})
	if err != nil {
		return nil, fmt.Errorf("server: %s: %w", dir, err)
	}
	est, err := restore(&st, dir, log, metrics)
	if err != nil {
		log.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	// A follower bootstrap re-bases its log past the leader's checkpoint.
	// With no record mirrored since (or a crash before the re-base), the
	// log holds nothing past that position and would reopen at position
	// 1, below the checkpoint, where no recovery replays an append.
	if log.LastPos() < st.walPos {
		if err := log.ResetTo(st.walPos + 1); err != nil {
			log.Close()
			est.Close()
			return nil, fmt.Errorf("server: %s: re-basing wal: %w", dir, err)
		}
	}
	d := &durability{dir: dir, wal: log, fs: fsys}
	d.ckptPos.Store(st.walPos)
	d.lastCkptNanos.Store(time.Now().UnixNano())
	sess := blankSession(st.name, st.m, st.n, st.k, st.alpha, st.seed, cfg, metrics)
	sess.dur = d
	// The overseer is not attached yet, so this only seeds the resident
	// footprint; the caller folds it into the budget total.
	sess.install(est, st.dedup)
	return sess, nil
}

// loadCheckpoint reads and decodes a session directory's checkpoint; an
// error names the file. ok=false (no error) means the directory has none
// — a crash between directory creation and the initial checkpoint.
func loadCheckpoint(fsys fault.FS, dir string) (checkpointState, bool, error) {
	path := filepath.Join(dir, checkpointFile)
	payload, err := snapshot.ReadFileFS(fsys, path)
	if os.IsNotExist(err) {
		return checkpointState{}, false, nil
	}
	if err != nil {
		return checkpointState{}, false, err
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		return checkpointState{}, false, fmt.Errorf("%s: %w", path, err)
	}
	return st, true, nil
}

// newEstimator builds a session's estimator from its parameters alone:
// what a create starts and what a checkpoint without a blob restores to.
func newEstimator(m, n, k int, alpha float64, seed int64) (*streamcover.Estimator, error) {
	return streamcover.NewEstimator(m, n, k, alpha, streamcover.WithSeed(seed))
}

// estimator turns the checkpoint into the estimator it holds: a fresh one
// built from its parameters if it holds no blob, else its blob decoded.
// Every checkpoint reader (restore and a follower's rebootstrap) goes
// through it.
func (st *checkpointState) estimator() (*streamcover.Estimator, error) {
	if st.est == nil {
		return newEstimator(st.m, st.n, st.k, st.alpha, st.seed)
	}
	return streamcover.DecodeEstimator(st.est)
}

// restore rebuilds the estimator of session directory dir from its
// checkpoint st and log, the directory's WAL: it restores the checkpoint's
// estimator and replays the log's tail past it, advancing st.dedup to the
// replayed horizon. Startup recovery and rehydration both restore through
// it, so a rehydrated estimator is bit-identical to a recovered one, and
// to one that was never evicted. An error names the file that failed; the
// estimator is closed on failure, since a replay that fails part-way has
// already started its engine helpers.
func restore(st *checkpointState, dir string, log *wal.Log, metrics *Metrics) (*streamcover.Estimator, error) {
	est, err := st.estimator()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, checkpointFile), err)
	}
	if err := replayTail(log, st, est, metrics); err != nil {
		est.Close()
		return nil, fmt.Errorf("%s: replay: %w", filepath.Join(dir, "wal"), err)
	}
	return est, nil
}

// replayTail replays the WAL tail past st.walPos into est, one
// ProcessColumns per record exactly as the live apply does, advancing
// st.dedup to the replayed horizon.
func replayTail(log *wal.Log, st *checkpointState, est *streamcover.Estimator, metrics *Metrics) error {
	start := time.Now()
	var batches, edgesReplayed int64
	var cols stream.Columns // reused decode arena across the whole tail
	err := log.Replay(st.walPos+1, func(pos uint64, rec []byte) error {
		source, seq, err := decodeWALRecord(rec, st.name, st.m, st.n, &cols)
		if err != nil {
			return fmt.Errorf("record %d: %w", pos, err)
		}
		if seq <= st.dedup[source] {
			return nil // duplicate was logged and skipped live, skip again
		}
		st.dedup[source] = seq
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

// decodeWALRecord parses one logged batch into cols: the TIngestSeq frame
// type byte followed by the original wire payload.
func decodeWALRecord(rec []byte, wantName string, wantM, wantN int, cols *stream.Columns) (source, seq uint64, err error) {
	if len(rec) == 0 {
		return 0, 0, fmt.Errorf("empty record")
	}
	if rec[0] != wire.TIngestSeq {
		return 0, 0, fmt.Errorf("unknown record type 0x%02x", rec[0])
	}
	name, source, seq, m, n, err := wire.DecodeIngestSeqInto(rec[1:], cols)
	if err != nil {
		return 0, 0, err
	}
	if name != wantName || m != wantM || n != wantN {
		return 0, 0, fmt.Errorf("record for session %q dims (%d,%d), want %q (%d,%d)",
			name, m, n, wantName, wantM, wantN)
	}
	return source, seq, nil
}
