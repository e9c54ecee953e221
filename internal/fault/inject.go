package fault

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Injector wraps an FS and fails operations on a scripted schedule. Each
// operation class (writes, file fsyncs, directory fsyncs, removes,
// renames) has an independent window: armed for the next n operations, or
// sticky until cleared. A byte budget models a filling disk: writes beyond
// it perform a realistic torn short write and return an error wrapping
// syscall.ENOSPC.
//
// The Injector draws no randomness — the same script against the same
// code produces the same failures — which is what lets a seeded soak test
// replay an interesting storm exactly. It is safe for concurrent use.
type Injector struct {
	inner FS

	mu       sync.Mutex
	writes   window
	syncs    window
	syncDirs window
	removes  window
	renames  window
	budget   int64 // remaining write bytes; <0 = unlimited
	latency  time.Duration

	// Counters (atomic): observed operations and injected failures.
	WriteOps     atomic.Int64
	SyncOps      atomic.Int64
	WriteFails   atomic.Int64
	SyncFails    atomic.Int64
	DiskFullHits atomic.Int64
}

// window is one operation class's failure schedule: fail the next n calls
// (n < 0: every call) with err.
type window struct {
	n   int
	err error
}

// take consumes one slot from the window; nil means the operation should
// succeed. Caller holds the injector's mutex.
func (w *window) take() error {
	if w.n == 0 {
		return nil
	}
	if w.n > 0 {
		w.n--
	}
	return w.err
}

func arm(w *window, n int, err error) {
	if err == nil {
		err = ErrInjected
	}
	w.n, w.err = n, err
}

// NewInjector wraps inner (typically OS()) with an initially transparent
// injector: no faults armed, unlimited budget.
func NewInjector(inner FS) *Injector {
	if inner == nil {
		inner = OS()
	}
	return &Injector{inner: inner, budget: -1}
}

// FailWrites arms the next n File.Write calls to fail with err (nil:
// ErrInjected). n < 0 makes the failure sticky until cleared; n == 0
// clears it.
func (i *Injector) FailWrites(n int, err error) {
	i.mu.Lock()
	arm(&i.writes, n, err)
	i.mu.Unlock()
}

// FailSyncs arms the next n File.Sync calls to fail (fsync errors — the
// classic way a WAL group commit dies).
func (i *Injector) FailSyncs(n int, err error) {
	i.mu.Lock()
	arm(&i.syncs, n, err)
	i.mu.Unlock()
}

// FailSyncDirs arms directory-fsync failures (segment creation, snapshot
// rename durability).
func (i *Injector) FailSyncDirs(n int, err error) {
	i.mu.Lock()
	arm(&i.syncDirs, n, err)
	i.mu.Unlock()
}

// FailRemoves arms Remove/RemoveAll failures (WAL truncation mid-removal).
func (i *Injector) FailRemoves(n int, err error) {
	i.mu.Lock()
	arm(&i.removes, n, err)
	i.mu.Unlock()
}

// FailRenames arms Rename failures (the atomic snapshot publish step).
func (i *Injector) FailRenames(n int, err error) {
	i.mu.Lock()
	arm(&i.renames, n, err)
	i.mu.Unlock()
}

// SetDiskBudget allows n more written bytes before writes start failing
// with ENOSPC; the write that crosses the boundary lands short (torn).
// n < 0 restores an unlimited disk.
func (i *Injector) SetDiskBudget(n int64) {
	i.mu.Lock()
	i.budget = n
	i.mu.Unlock()
}

// SetLatency makes every write and fsync sleep d first (slow-disk
// injection). Zero disables.
func (i *Injector) SetLatency(d time.Duration) {
	i.mu.Lock()
	i.latency = d
	i.mu.Unlock()
}

// Clear disarms every fault and restores an unlimited budget; counters
// are preserved.
func (i *Injector) Clear() {
	i.mu.Lock()
	i.writes, i.syncs, i.syncDirs, i.removes, i.renames = window{}, window{}, window{}, window{}, window{}
	i.budget = -1
	i.latency = 0
	i.mu.Unlock()
}

func (i *Injector) sleep() {
	i.mu.Lock()
	d := i.latency
	i.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

func (i *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &injectFile{inner: f, inj: i}, nil
}

func (i *Injector) CreateTemp(dir, pattern string) (File, error) {
	f, err := i.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{inner: f, inj: i}, nil
}

func (i *Injector) Rename(oldpath, newpath string) error {
	i.mu.Lock()
	err := i.renames.take()
	i.mu.Unlock()
	if err != nil {
		return fmt.Errorf("fault: rename %s: %w", newpath, err)
	}
	return i.inner.Rename(oldpath, newpath)
}

func (i *Injector) Remove(name string) error {
	i.mu.Lock()
	err := i.removes.take()
	i.mu.Unlock()
	if err != nil {
		return fmt.Errorf("fault: remove %s: %w", name, err)
	}
	return i.inner.Remove(name)
}

func (i *Injector) RemoveAll(path string) error {
	i.mu.Lock()
	err := i.removes.take()
	i.mu.Unlock()
	if err != nil {
		return fmt.Errorf("fault: remove %s: %w", path, err)
	}
	return i.inner.RemoveAll(path)
}

func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	return i.inner.MkdirAll(path, perm)
}

func (i *Injector) ReadFile(name string) ([]byte, error)       { return i.inner.ReadFile(name) }
func (i *Injector) ReadDir(name string) ([]fs.DirEntry, error) { return i.inner.ReadDir(name) }
func (i *Injector) Stat(name string) (fs.FileInfo, error)      { return i.inner.Stat(name) }
func (i *Injector) Truncate(name string, size int64) error     { return i.inner.Truncate(name, size) }

func (i *Injector) SyncDir(dir string) error {
	i.sleep()
	i.mu.Lock()
	err := i.syncDirs.take()
	i.mu.Unlock()
	if err != nil {
		i.SyncFails.Add(1)
		return fmt.Errorf("fault: fsync dir %s: %w", dir, err)
	}
	return i.inner.SyncDir(dir)
}

// injectFile interposes the injector's write/sync schedule on one file.
type injectFile struct {
	inner File
	inj   *Injector
}

func (f *injectFile) Name() string                            { return f.inner.Name() }
func (f *injectFile) ReadAt(p []byte, off int64) (int, error) { return f.inner.ReadAt(p, off) }

func (f *injectFile) Write(p []byte) (int, error) {
	i := f.inj
	i.sleep()
	i.WriteOps.Add(1)
	i.mu.Lock()
	if err := i.writes.take(); err != nil {
		i.mu.Unlock()
		i.WriteFails.Add(1)
		return 0, fmt.Errorf("fault: write %s: %w", f.inner.Name(), err)
	}
	short := -1 // full write
	if i.budget >= 0 {
		if i.budget >= int64(len(p)) {
			i.budget -= int64(len(p))
		} else {
			short = int(i.budget) // torn: only the remaining budget lands
			i.budget = 0
		}
	}
	i.mu.Unlock()
	if short < 0 {
		return f.inner.Write(p)
	}
	i.DiskFullHits.Add(1)
	n := 0
	if short > 0 {
		n, _ = f.inner.Write(p[:short])
	}
	return n, fmt.Errorf("fault: write %s: disk full: %w", f.inner.Name(), syscall.ENOSPC)
}

func (f *injectFile) Sync() error {
	i := f.inj
	i.sleep()
	i.SyncOps.Add(1)
	i.mu.Lock()
	err := i.syncs.take()
	i.mu.Unlock()
	if err != nil {
		i.SyncFails.Add(1)
		return fmt.Errorf("fault: fsync %s: %w", f.inner.Name(), err)
	}
	return f.inner.Sync()
}

func (f *injectFile) Close() error { return f.inner.Close() }
