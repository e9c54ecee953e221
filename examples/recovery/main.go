// Crash recovery, end to end: this example builds the kcoverd binary,
// runs a durable daemon, streams a planted instance into it, SIGKILLs the
// daemon mid-stream (after a checkpoint plus a WAL tail of acknowledged
// batches), restarts it on the same address, and lets the reconnecting
// client finish the stream. The recovered daemon's final estimate must be
// bit-identical to an uninterrupted daemon fed the same stream. The report
// — replay counters and the recovered answer — goes to stdout; for
// recovery timings use the benchmark (bash bench/run.sh --workload
// crash-recover).
//
//	go run ./examples/recovery        # from the repository root
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"time"

	"streamcover"
	"streamcover/internal/client"
)

const (
	ingestAddr = "127.0.0.1:17641"
	httpAddr   = "127.0.0.1:17642"
	refIngest  = "127.0.0.1:17643"
	refHTTP    = "127.0.0.1:17644"

	m, n, k = 2000, 20000, 20
	opt     = 16000
	alpha   = 4.0
	seed    = 42
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("recovery: ")

	tmp, err := os.MkdirTemp("", "kcoverd-recovery-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	bin := filepath.Join(tmp, "kcoverd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/kcoverd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		log.Fatal("building kcoverd (run from the repository root): ", err)
	}

	edges := plantedStream()
	q1, q2, q3 := len(edges)/4, len(edges)/2, 3*len(edges)/4
	dataDir := filepath.Join(tmp, "data")

	daemon := startDaemon(bin, ingestAddr, httpAddr, "-data", dataDir, "-wal-nosync")
	log.Printf("daemon up on %s (pid %d), streaming %d edges", ingestAddr, daemon.Process.Pid, len(edges))

	c, err := client.Dial(ingestAddr,
		client.WithBatchSize(512),
		client.WithReconnect(60),
		client.WithBackoff(20*time.Millisecond, 200*time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	sess, err := c.Create("recovery", m, n, k, alpha, seed)
	if err != nil {
		log.Fatal(err)
	}

	// First half, then force a checkpoint so recovery exercises both the
	// snapshot restore and the WAL tail that accumulates after it.
	sendAll(sess, edges[:q2])
	if _, err := http.Get("http://" + httpAddr + "/checkpoint"); err != nil {
		log.Fatal("checkpoint request: ", err)
	}
	sendAll(sess, edges[q2:q3]) // acknowledged, but only in the WAL
	log.Printf("checkpoint at edge %d, WAL tail to edge %d — SIGKILL", q2, q3)

	if err := daemon.Process.Kill(); err != nil {
		log.Fatal(err)
	}
	daemon.Wait()

	daemon = startDaemon(bin, ingestAddr, httpAddr, "-data", dataDir, "-wal-nosync")
	defer func() { daemon.Process.Kill(); daemon.Wait() }()
	log.Printf("daemon restarted (pid %d), client resumes the stream", daemon.Process.Pid)

	// The reconnecting client redials, re-creates the session (idempotent
	// against the recovered one), resends anything unacknowledged, and
	// carries on with the final quarter.
	sendAll(sess, edges[q3:])
	got, err := sess.Query()
	if err != nil {
		log.Fatal(err)
	}
	c.Close()

	replay := fetchReplayCounters()
	log.Printf("recovery replayed %d batches / %d edges in %.1fms (%.2fM edges/s)",
		replay["replay_batches"], replay["replay_edges"],
		float64(replay["replay_nanos"])/1e6, float64(replay["replay_edges_per_sec"])/1e6)

	// Reference: an uninterrupted in-memory daemon, same stream.
	ref := startDaemon(bin, refIngest, refHTTP)
	defer func() { ref.Process.Kill(); ref.Wait() }()
	rc, err := client.Dial(refIngest, client.WithBatchSize(512))
	if err != nil {
		log.Fatal(err)
	}
	rsess, err := rc.Create("recovery", m, n, k, alpha, seed)
	if err != nil {
		log.Fatal(err)
	}
	sendAll(rsess, edges)
	want, err := rsess.Query()
	if err != nil {
		log.Fatal(err)
	}
	rc.Close()

	match := got.Coverage == want.Coverage && got.Edges == want.Edges &&
		got.Feasible == want.Feasible && reflect.DeepEqual(got.SetIDs, want.SetIDs)
	log.Printf("recovered:      coverage %.6f over %d edges", got.Coverage, got.Edges)
	log.Printf("uninterrupted:  coverage %.6f over %d edges", want.Coverage, want.Edges)
	if !match {
		log.Fatal("FAIL: recovered daemon diverged from the uninterrupted run")
	}
	log.Printf("bit-identical after SIGKILL + restart (quarter boundaries %d/%d/%d)", q1, q2, q3)

	report(replay, got.Coverage, got.Edges)
}

// plantedStream builds the usual planted instance: k sets tile the
// optimum, the rest is background noise, order shuffled.
func plantedStream() []streamcover.Edge {
	rng := rand.New(rand.NewSource(7))
	var edges []streamcover.Edge
	for i := 0; i < k; i++ {
		for e := i * opt / k; e < (i+1)*opt/k; e++ {
			edges = append(edges, streamcover.Edge{Set: uint32(i), Elem: uint32(e)})
		}
	}
	for s := k; s < m; s++ {
		for d := 0; d < 4; d++ {
			edges = append(edges, streamcover.Edge{Set: uint32(s), Elem: uint32(rng.Intn(n))})
		}
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges
}

func startDaemon(bin, listen, httpA string, extra ...string) *exec.Cmd {
	args := append([]string{
		"-listen", listen, "-http", httpA, "-checkpoint", "0",
	}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatal(err)
	}
	waitForPort(listen)
	return cmd
}

func waitForPort(addr string) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			conn.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	log.Fatalf("daemon did not come up on %s", addr)
}

func sendAll(sess *client.Session, edges []streamcover.Edge) {
	if err := sess.Send(edges); err != nil {
		log.Fatal(err)
	}
	if err := sess.Flush(); err != nil {
		log.Fatal(err)
	}
}

func fetchReplayCounters() map[string]int64 {
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		log.Fatal("metrics request: ", err)
	}
	defer resp.Body.Close()
	var out struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal("metrics decode: ", err)
	}
	return out.Counters
}

// report prints the run's outcome as JSON on stdout.
func report(replay map[string]int64, coverage float64, edges int) {
	out := map[string]any{
		"instance":             fmt.Sprintf("planted m=%d n=%d k=%d alpha=%g seed=%d", m, n, k, alpha, seed),
		"replay_batches":       replay["replay_batches"],
		"replay_edges":         replay["replay_edges"],
		"replay_nanos":         replay["replay_nanos"],
		"replay_edges_per_sec": replay["replay_edges_per_sec"],
		"recovered_coverage":   coverage,
		"recovered_edges":      edges,
		"bit_identical":        true,
	}
	data, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(data))
}
