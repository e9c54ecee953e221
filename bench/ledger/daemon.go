package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildKcoverd compiles ./cmd/kcoverd of the tree rooted at root into out.
func buildKcoverd(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/kcoverd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building kcoverd in %s: %w", root, err)
	}
	return nil
}

// daemon is one kcoverd process started with deployment flags only: the
// listen addresses (ephemeral loopback ports), the data directory, and
// -checkpoint 0 so no timer-driven checkpoint lands inside a timed window.
// Everything else — fsync on, -workers = GOMAXPROCS, -engine-workers 1 —
// stays at its shipped default.
type daemon struct {
	cmd    *exec.Cmd
	exited chan error // receives cmd.Wait's result once
	Ingest string     // TCP ingest address
	HTTP   string     // HTTP query/metrics address
}

// startDaemon spawns kcoverd on dataDir and waits until it listens. A
// durable kcoverd recovers every session before it listens, so for a
// restart the return marks the end of recovery.
func startDaemon(bin, dataDir string, extra ...string) (*daemon, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-http", "127.0.0.1:0", "-data", dataDir, "-checkpoint", "0"}, extra...)
	lw := &lineWatch{ready: make(chan [2]string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lw, lw
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting kcoverd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	select {
	case addrs := <-lw.ready:
		d.Ingest, d.HTTP = addrs[0], addrs[1]
		return d, nil
	case err := <-d.exited:
		return nil, fmt.Errorf("kcoverd exited before listening (%v): %s", err, lw.text())
	case <-time.After(2 * time.Minute):
		d.kill()
		return nil, fmt.Errorf("kcoverd did not listen within 2m: %s", lw.text())
	}
}

// kill SIGKILLs the daemon and waits for it to be gone. It is the only
// way the benchmark stops a daemon: teardown is never measured, and a
// crash is what crash-recover needs anyway.
func (d *daemon) kill() {
	if d == nil || d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	<-d.exited
	d.cmd = nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpu returns the daemon's CPU time (user + system) so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// utime and stime are the 14th and 15th fields of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", d.pid())
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", d.pid())
	}
	const clkTck = 100 // USER_HZ, fixed at 100 on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) { return procStatusMB(d.pid(), "VmHWM") }

// procStatusMB reads a kB field of /proc/<pid>/status (VmRSS, VmHWM) in MB.
func procStatusMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%d/status", field, pid)
}

var httpClient = &http.Client{Timeout: 2 * time.Minute}

// liveHeapMB forces a garbage collection in the daemon and returns its
// live heap (HeapAlloc) in MB, through kcoverd's pprof heap endpoint.
func (d *daemon) liveHeapMB() (float64, error) {
	resp, err := httpClient.Get("http://" + d.HTTP + "/debug/pprof/heap?debug=1&gc=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# HeapAlloc = "); ok {
			b, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("heap profile: %w", err)
			}
			return b / (1 << 20), nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("heap profile has no HeapAlloc line")
}

// counters reads the daemon's /metrics counter map.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := httpClient.Get("http://" + d.HTTP + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return out.Counters, nil
}

// checkpoint forces a checkpoint of every session (POST /checkpoint).
func (d *daemon) checkpoint() error {
	resp, err := httpClient.Post("http://"+d.HTTP+"/checkpoint", "text/plain", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body) // only for the error text
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /checkpoint: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return nil
}

// lineWatch collects the daemon's output and spots the start-up line
// "kcoverd: ingest on A, http on B", which kcoverd prints once it
// listens.
type lineWatch struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	seen  int
	ready chan [2]string
	sent  bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if w.sent {
		return len(p), nil
	}
	// kcoverd writes the start-up line in pieces; look at whole lines only.
	end := bytes.LastIndexByte(w.buf.Bytes(), '\n') + 1
	sc := bufio.NewScanner(bytes.NewReader(w.buf.Bytes()[w.seen:end]))
	w.seen = end
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "kcoverd: ingest on ")
		if !ok {
			continue
		}
		ingest, httpAddr, _ := strings.Cut(rest, ", http on ")
		w.ready <- [2]string{strings.TrimSpace(ingest), strings.TrimSpace(httpAddr)}
		w.sent = true
		break
	}
	return len(p), nil
}

func (w *lineWatch) text() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return strings.TrimSpace(w.buf.String())
}
