package replica

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"time"

	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

// ShipSource is the leader-side view of one session's replicated state.
// internal/server implements it on top of the session's durability.
type ShipSource interface {
	// Snapshot returns the session's current checkpoint blob and the WAL
	// position it covers: replaying positions > walPos on top of the
	// decoded checkpoint reproduces the live state. Taking one may force
	// a fresh checkpoint.
	Snapshot() (walPos uint64, ckpt []byte, err error)
	// Log is the session's write-ahead log, for opening shipping readers.
	Log() *wal.Log
}

// ShipOptions tunes one shipping stream.
type ShipOptions struct {
	// HeartbeatEvery is the cadence of TRepHeartbeat frames while the
	// follower is caught up (default 250ms). Heartbeats carry the durable
	// head, so follower staleness resolution is bounded by this.
	HeartbeatEvery time.Duration
	// Poll is how often a caught-up shipper re-checks the log for new
	// records (default 2ms).
	Poll time.Duration
}

// flushEvery bounds how many entry frames may buffer before a flush.
const flushEvery = 64

func (o *ShipOptions) defaults() {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 250 * time.Millisecond
	}
	if o.Poll <= 0 {
		o.Poll = 2 * time.Millisecond
	}
}

// Ship streams src's WAL to one subscribed follower over w, starting
// after the follower's applied position. When the follower is behind the
// log's truncation horizon it first sends a TRepSnapshot bootstrap, then
// streams entries from the checkpoint position. Ship returns when the
// connection breaks, stop closes, or the log reports an error; a clean
// stop returns nil.
//
// The open reader pins the log segments it has yet to deliver, so a
// checkpoint's TruncateBefore cannot race records out from under a slow
// follower (see wal.Reader).
func Ship(w *bufio.Writer, src ShipSource, applied uint64, stop <-chan struct{}, opts ShipOptions) error {
	opts.defaults()
	r, err := openShipReader(w, src, applied)
	if err != nil {
		return err
	}
	defer r.Close()

	var entryBuf []byte
	unflushed := 0
	lastBeat := time.Now()
	beat := func() error {
		if err := wire.WriteFrame(w, wire.TRepHeartbeat, wire.EncodeHeartbeat(src.Log().DurablePos())); err != nil {
			return err
		}
		lastBeat = time.Now()
		return w.Flush()
	}
	if err := beat(); err != nil {
		return err
	}
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		pos, rec, err := r.Next()
		switch {
		case err == nil:
			entryBuf = wire.EncodeEntry(entryBuf, pos, rec)
			if err := wire.WriteFrame(w, wire.TRepEntry, entryBuf); err != nil {
				return err
			}
			if unflushed++; unflushed >= flushEvery {
				if err := w.Flush(); err != nil {
					return err
				}
				unflushed = 0
			}
		case errors.Is(err, wal.ErrCaughtUp):
			if err := w.Flush(); err != nil {
				return err
			}
			unflushed = 0
			if time.Since(lastBeat) >= opts.HeartbeatEvery {
				if err := beat(); err != nil {
					return err
				}
			}
			select {
			case <-stop:
				return nil
			case <-time.After(opts.Poll):
			}
		default:
			return err
		}
	}
}

// openShipReader opens a reader at applied+1, falling back to a snapshot
// bootstrap when those records are already truncated. The retry loop
// covers a checkpoint advancing the truncation horizon between the
// snapshot and the reader open.
func openShipReader(w *bufio.Writer, src ShipSource, applied uint64) (*wal.Reader, error) {
	r, err := src.Log().OpenReader(applied + 1)
	if err == nil {
		return r, nil
	}
	if !errors.Is(err, wal.ErrTruncated) {
		return nil, err
	}
	var snapBuf []byte
	for attempt := 0; attempt < 5; attempt++ {
		walPos, ckpt, err := src.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("replica: snapshot for bootstrap: %w", err)
		}
		r, err = src.Log().OpenReader(walPos + 1)
		if errors.Is(err, wal.ErrTruncated) {
			continue
		}
		if err != nil {
			return nil, err
		}
		snapBuf = wire.EncodeSnapshot(snapBuf, walPos, ckpt)
		if err := wire.WriteFrame(w, wire.TRepSnapshot, snapBuf); err != nil {
			r.Close()
			return nil, err
		}
		if err := w.Flush(); err != nil {
			r.Close()
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("replica: snapshot horizon kept advancing: %w", io.ErrNoProgress)
}
