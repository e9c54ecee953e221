package replica

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

// leaderSrc is a ShipSource over a bare log with a canned checkpoint.
type leaderSrc struct {
	log      *wal.Log
	snapPos  uint64
	snapBlob []byte
}

func (s *leaderSrc) Snapshot() (uint64, []byte, error) { return s.snapPos, s.snapBlob, nil }
func (s *leaderSrc) Log() *wal.Log                     { return s.log }

// mirrorTarget is an ApplyTarget that mirrors records into its own log,
// exactly as the server's follower session does.
type mirrorTarget struct {
	log *wal.Log

	mu   sync.Mutex
	recs map[uint64][]byte
	boot []byte
	bpos uint64
}

func (t *mirrorTarget) Applied() uint64 { return t.log.LastPos() }

func (t *mirrorTarget) Bootstrap(walPos uint64, ckpt []byte) error {
	if err := t.log.ResetTo(walPos + 1); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.boot = append([]byte(nil), ckpt...)
	t.bpos = walPos
	return nil
}

func (t *mirrorTarget) Apply(pos uint64, rec []byte) error {
	got, err := t.log.Append(rec)
	if err != nil {
		return err
	}
	if got != pos {
		return fmt.Errorf("mirror landed at %d, want %d", got, pos)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.recs == nil {
		t.recs = map[uint64][]byte{}
	}
	t.recs[pos] = append([]byte(nil), rec...)
	return nil
}

// serveShipper accepts subscribe connections and ships src on each. stop
// closes the listener and every connection, which ends each shipper at
// its next write.
func serveShipper(t *testing.T, src *leaderSrc) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	stopped := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			if stopped {
				conn.Close()
			}
			mu.Unlock()
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				var scratch []byte
				typ, payload, err := wire.ReadFrameInto(bufio.NewReader(conn), &scratch)
				if err != nil || typ != wire.TRepSubscribe {
					return
				}
				_, applied, err := wire.DecodeSubscribe(payload)
				if err != nil {
					return
				}
				Ship(bufio.NewWriter(conn), src, applied, ShipOptions{HeartbeatEvery: 20 * time.Millisecond})
			}(conn)
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		stopped = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

func waitApplied(t *testing.T, a *Applier, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Applied() < want {
		if time.Now().After(deadline) {
			t.Fatalf("applier stuck at %d, want %d", a.Applied(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShipApplyMirrorsLog(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	llog, err := wal.Open(ldir, wal.Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer llog.Close()
	want := map[uint64][]byte{}
	for i := 1; i <= 100; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1+i%17)
		pos, err := llog.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[pos] = rec
	}
	src := &leaderSrc{log: llog}
	addr, stop := serveShipper(t, src)
	defer stop()

	flog, err := wal.Open(fdir, wal.Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	tgt := &mirrorTarget{log: flog}
	a := NewApplier("s", addr, tgt, ApplyOptions{ReadTimeout: 500 * time.Millisecond})
	a.Start()
	defer a.Stop()
	waitApplied(t, a, 100)

	// Live tail: appends after subscribe flow through.
	for i := 101; i <= 140; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 1+i%17)
		pos, err := llog.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		want[pos] = rec
	}
	waitApplied(t, a, 140)

	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	if len(tgt.recs) != 140 {
		t.Fatalf("mirrored %d records, want 140", len(tgt.recs))
	}
	for pos, rec := range want {
		if !bytes.Equal(tgt.recs[pos], rec) {
			t.Fatalf("record %d differs", pos)
		}
	}
	// Caught up ⇒ staleness is heartbeat-fresh.
	deadline := time.Now().Add(2 * time.Second)
	for a.Staleness() > 250*time.Millisecond {
		if time.Now().After(deadline) {
			t.Fatalf("staleness never settled: %v", a.Staleness())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestShipBootstrapsTruncatedFollower(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	llog, err := wal.Open(ldir, wal.Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer llog.Close()
	for i := 1; i <= 30; i++ {
		if _, err := llog.Append(bytes.Repeat([]byte{byte(i)}, 24)); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint at 20 and truncate: a fresh follower can no longer
	// replay from the start and must bootstrap.
	if err := llog.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	src := &leaderSrc{log: llog, snapPos: 20, snapBlob: []byte("ckpt@20")}
	addr, stop := serveShipper(t, src)
	defer stop()

	flog, err := wal.Open(fdir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	tgt := &mirrorTarget{log: flog}
	a := NewApplier("s", addr, tgt, ApplyOptions{ReadTimeout: 500 * time.Millisecond})
	a.Start()
	defer a.Stop()
	waitApplied(t, a, 30)

	tgt.mu.Lock()
	defer tgt.mu.Unlock()
	if tgt.bpos != 20 || string(tgt.boot) != "ckpt@20" {
		t.Fatalf("bootstrap (%d, %q), want (20, ckpt@20)", tgt.bpos, tgt.boot)
	}
	if len(tgt.recs) != 10 {
		t.Fatalf("mirrored %d tail records, want 10", len(tgt.recs))
	}
	if flog.LastPos() != 30 {
		t.Fatalf("follower log head %d, want 30", flog.LastPos())
	}
}

func TestApplierSurvivesLeaderRestart(t *testing.T) {
	ldir, fdir := t.TempDir(), t.TempDir()
	llog, err := wal.Open(ldir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer llog.Close()
	for i := 1; i <= 10; i++ {
		if _, err := llog.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	src := &leaderSrc{log: llog}
	addr, stop := serveShipper(t, src)

	flog, err := wal.Open(fdir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer flog.Close()
	a := NewApplier("s", addr, &mirrorTarget{log: flog}, ApplyOptions{ReadTimeout: 200 * time.Millisecond})
	a.Start()
	defer a.Stop()
	waitApplied(t, a, 10)

	// Kill the leader, append more, bring a new one up on a new address,
	// and retarget — the applier resubscribes from its watermark.
	stop()
	for i := 11; i <= 20; i++ {
		if _, err := llog.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	addr2, stop2 := serveShipper(t, src)
	defer stop2()
	a.SetLeader(addr2)
	waitApplied(t, a, 20)
	if flog.LastPos() != 20 {
		t.Fatalf("follower log head %d, want 20", flog.LastPos())
	}
}
