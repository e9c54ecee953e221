package core

import (
	"sync"
	"sync/atomic"
)

// The persistent parallel batch engine.
//
// The estimator's (guess, repetition) oracle grid is embarrassingly
// parallel: every unit owns all of its mutable state (its reduction hash
// is read-only during processing, its oracle is private), so a chunk can
// be fanned across workers with no locking as long as each unit is
// processed by exactly one worker per chunk. The engine keeps a fixed set
// of helper goroutines alive until the estimator's Close: spawning
// goroutines per batch would cost a scheduler round-trip per batch and
// lose the helpers' warmed-up BatchScratch buffers.
//
// Work distribution is work-stealing over an atomic unit-index cursor:
// units differ wildly in cost (a guess at the bottom of the ladder
// collapses the element column to a handful of pseudo-elements; the top
// guess sketches the full chunk), so static unit partitions leave workers
// idle. Every participant — the helpers AND the goroutine that called
// ProcessColumns — claims the next unclaimed unit until the cursor runs off
// the end.
//
// Bit-identity: a unit's edges are processed in arrival order by a single
// goroutine per chunk, chunks are separated by a full barrier (run
// returns only after every unit of the chunk settles), and units share no
// mutable state — so every oracle observes exactly the update sequence
// the sequential path would produce, and the resulting estimator state is
// bit-for-bit identical for every worker count. The chunk's Prepass is
// computed once by the caller and shared read-only: the channel send
// publishing the run happens-after indexing, and the caller's
// done.Wait() happens-after every helper's writes.
type engine struct {
	chans []chan *engineRun // one per helper, so a run reaches every helper
	wg    sync.WaitGroup
}

// engineRun is one chunk's fan-out: the shared read-only prepass (which
// carries everything a unit reads, including the chunk's set-ID column)
// plus the work-stealing cursor over the estimator's unit list.
type engineRun struct {
	est   *Estimator
	count int // edges in the chunk
	pre   *Prepass
	next  atomic.Int32   // next unclaimed unit index
	done  sync.WaitGroup // one count per unit
}

// newEngine starts `helpers` persistent worker goroutines (the calling
// goroutine is the +1-th worker of every run).
func newEngine(helpers int) *engine {
	e := &engine{chans: make([]chan *engineRun, helpers)}
	for i := range e.chans {
		ch := make(chan *engineRun, 1)
		e.chans[i] = ch
		e.wg.Add(1)
		go e.helper(ch)
	}
	return e
}

// helper is one persistent worker: it owns a private BatchScratch for its
// units' mutable working memory and borrows each run's shared prepass.
func (e *engine) helper(ch chan *engineRun) {
	defer e.wg.Done()
	sc := &BatchScratch{}
	for r := range ch {
		sc.pre = r.pre
		e.work(r, sc)
		sc.pre = nil // don't retain the caller's prepass between runs
	}
}

// work claims and processes units until the run's cursor is exhausted.
func (e *engine) work(r *engineRun, sc *BatchScratch) {
	units := r.est.unitList
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(units) {
			return
		}
		u := units[i]
		r.est.processChunkUnit(r.count, sc, u.g, u.rep)
		r.done.Done()
	}
}

// run fans one indexed chunk of count edges across the helpers plus the
// calling goroutine and returns once every unit has been processed.
// callerSc must already hold the chunk's prepass (sc.IndexColumns ran).
func (e *engine) run(est *Estimator, count int, callerSc *BatchScratch) {
	r := &engineRun{est: est, count: count, pre: callerSc.pre}
	r.done.Add(len(est.unitList))
	for _, ch := range e.chans {
		ch <- r
	}
	e.work(r, callerSc)
	r.done.Wait()
}

// close stops the helpers and waits for them to exit. Any in-flight run
// has already completed (run returns only after the barrier), so this
// never abandons work.
func (e *engine) close() {
	for _, ch := range e.chans {
		close(ch)
	}
	e.wg.Wait()
}
