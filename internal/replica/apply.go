package replica

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"streamcover/internal/wire"
)

// ApplyTarget is the follower-side state the applier feeds.
// internal/server implements it on a replica session.
type ApplyTarget interface {
	// Applied reports the replica's watermark: the highest WAL position
	// whose record is durably mirrored and applied.
	Applied() uint64
	// Bootstrap replaces the replica's state with a leader checkpoint
	// covering walPos. It arrives when the leader has truncated past the
	// replica's watermark (or the replica is brand new).
	Bootstrap(walPos uint64, ckpt []byte) error
	// Apply mirrors one WAL record at pos (== Applied()+1) and applies it
	// through the replay path.
	Apply(pos uint64, rec []byte) error
}

// ApplyOptions tunes an applier.
type ApplyOptions struct {
	// ReadTimeout bounds the gap between leader frames; heartbeats arrive
	// every ShipOptions.HeartbeatEvery, so this doubles as the
	// leader-death detector (default 2s).
	ReadTimeout time.Duration
}

// An applier dials its leader within applyDialTimeout and backs off
// between reconnects from applyBackoffMin, doubling up to applyBackoffMax.
const (
	applyDialTimeout = 2 * time.Second
	applyBackoffMin  = 20 * time.Millisecond
	applyBackoffMax  = 500 * time.Millisecond
)

func (o *ApplyOptions) defaults() {
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 2 * time.Second
	}
}

// errStopped signals a deliberate Stop rather than a stream failure.
var errStopped = errors.New("replica: applier stopped")

// Applier maintains one session's replication stream from its leader:
// dial, subscribe at the current watermark, apply entries in order, and
// reconnect with backoff on any failure. SetLeader retargets it after a
// promotion. The applier also tracks the replica's staleness — the age
// of the last moment it was provably caught up to the leader's durable
// head — which is what staleness-bounded follower reads are gated on.
type Applier struct {
	session string
	target  ApplyTarget
	opts    ApplyOptions

	mu   sync.Mutex
	addr string
	conn net.Conn

	applied    atomic.Uint64
	head       atomic.Uint64 // leader durable head, from heartbeats
	lastCaught atomic.Int64  // unix nanos of the last caught-up proof
	started    time.Time

	stop chan struct{}
	done chan struct{}
}

// NewApplier builds an applier for session, pulling from leaderAddr.
// Call Start to begin.
func NewApplier(session, leaderAddr string, target ApplyTarget, opts ApplyOptions) *Applier {
	opts.defaults()
	return &Applier{
		session: session,
		target:  target,
		opts:    opts,
		addr:    leaderAddr,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the replication loop.
func (a *Applier) Start() {
	a.started = time.Now()
	a.applied.Store(a.target.Applied())
	go a.run()
}

// Stop tears the stream down and waits for the loop to exit. Idempotent
// is not required; callers stop an applier exactly once (promotion or
// session close).
func (a *Applier) Stop() {
	close(a.stop)
	a.mu.Lock()
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
	<-a.done
}

// SetLeader retargets the applier at a new leader (after a promotion)
// and kicks any live connection so the switch is immediate.
func (a *Applier) SetLeader(addr string) {
	a.mu.Lock()
	a.addr = addr
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
}

// Leader reports the applier's current leader address.
func (a *Applier) Leader() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addr
}

// Applied reports the replica watermark.
func (a *Applier) Applied() uint64 { return a.applied.Load() }

// Staleness reports the watermark age: how long ago the replica was last
// provably caught up (applied >= leader head, on a live stream). A
// replica that has never caught up reports the time since Start.
func (a *Applier) Staleness() time.Duration {
	last := a.lastCaught.Load()
	if last == 0 {
		return time.Since(a.started)
	}
	return time.Since(time.Unix(0, last))
}

func (a *Applier) run() {
	defer close(a.done)
	backoff := applyBackoffMin
	for {
		select {
		case <-a.stop:
			return
		default:
		}
		err := a.stream()
		if errors.Is(err, errStopped) {
			return
		}
		select {
		case <-a.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > applyBackoffMax {
			backoff = applyBackoffMax
		}
	}
}

// stream runs one connection worth of replication.
func (a *Applier) stream() error {
	a.mu.Lock()
	addr := a.addr
	a.mu.Unlock()
	conn, err := net.DialTimeout("tcp", addr, applyDialTimeout)
	if err != nil {
		return err
	}
	a.mu.Lock()
	select {
	case <-a.stop:
		a.mu.Unlock()
		conn.Close()
		return errStopped
	default:
	}
	a.conn = conn
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		if a.conn == conn {
			a.conn = nil
		}
		a.mu.Unlock()
		conn.Close()
	}()

	bw := bufio.NewWriter(conn)
	if err := wire.WriteFrame(bw, wire.TRepSubscribe, wire.EncodeSubscribe(a.session, a.applied.Load())); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	var scratch []byte
	for {
		select {
		case <-a.stop:
			return errStopped
		default:
		}
		conn.SetReadDeadline(time.Now().Add(a.opts.ReadTimeout))
		typ, payload, err := wire.ReadFrameInto(br, &scratch)
		if err != nil {
			return err
		}
		switch typ {
		case wire.TRepSnapshot:
			walPos, ckpt, err := wire.DecodeSnapshot(payload)
			if err != nil {
				return err
			}
			if err := a.target.Bootstrap(walPos, ckpt); err != nil {
				return fmt.Errorf("replica: bootstrap: %w", err)
			}
			a.applied.Store(walPos)
		case wire.TRepEntry:
			pos, rec, err := wire.DecodeEntry(payload)
			if err != nil {
				return err
			}
			applied := a.applied.Load()
			if pos <= applied {
				continue // duplicate after a resubscribe race; already applied
			}
			if pos != applied+1 {
				return fmt.Errorf("replica: entry gap: got %d, want %d", pos, applied+1)
			}
			if err := a.target.Apply(pos, rec); err != nil {
				return fmt.Errorf("replica: apply %d: %w", pos, err)
			}
			a.applied.Store(pos)
			a.noteCaughtUp()
		case wire.TRepHeartbeat:
			head, err := wire.DecodeHeartbeat(payload)
			if err != nil {
				return err
			}
			a.head.Store(head)
			a.noteCaughtUp()
		case wire.TErrNotLeader:
			next, err := wire.DecodeNotLeader(payload)
			if err == nil && next != "" && next != addr {
				a.mu.Lock()
				if a.addr == addr { // don't override a fresher SetLeader
					a.addr = next
				}
				a.mu.Unlock()
			}
			return fmt.Errorf("replica: %s is not the leader (redirect %q)", addr, next)
		case wire.TErrRetry, wire.TErr:
			return fmt.Errorf("replica: leader rejected subscribe: %s", payload)
		default:
			return fmt.Errorf("replica: unexpected frame 0x%02x on replication stream", typ)
		}
	}
}

// noteCaughtUp stamps the staleness clock whenever the watermark has
// reached the leader's last advertised durable head on a live stream.
// The proof is only as fresh as the last heartbeat, so staleness has
// ShipOptions.HeartbeatEvery resolution.
func (a *Applier) noteCaughtUp() {
	if a.applied.Load() >= a.head.Load() {
		a.lastCaught.Store(time.Now().UnixNano())
	}
}
