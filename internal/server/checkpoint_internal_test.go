package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"streamcover"
	"streamcover/internal/fault"
	"streamcover/internal/snapshot"
	"streamcover/internal/stream"
	"streamcover/internal/wal"
	"streamcover/internal/wire"
)

// testBatch is batch seq of 64 edges for a session of c's dims.
func testBatch(c wire.Create, seq int) (sets, elems []uint32) {
	sets, elems = make([]uint32, 64), make([]uint32, 64)
	for i := range sets {
		sets[i], elems[i] = uint32((seq*7+i)%c.M), uint32((seq*13+5*i)%c.N)
	}
	return sets, elems
}

// checkpointedSession builds a session directory under a fresh data dir:
// a create, four batches from two sources, a checkpoint past them, then
// two batches more in the WAL. It returns the session directory and the
// checkpoint payload.
func checkpointedSession(t *testing.T, c wire.Create) (string, []byte) {
	t.Helper()
	srv := New(Config{DataDir: t.TempDir(), WALNoSync: true, CheckpointEvery: -1})
	defer srv.Abort()
	if err := srv.createSession(c); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.session(c.Name)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 6; seq++ {
		if seq == 5 {
			if err := srv.CheckpointAll(); err != nil {
				t.Fatal(err)
			}
		}
		source := uint64(10 + seq%2)
		sets, elems := testBatch(c, seq)
		payload := wire.EncodeIngestSeqColumns(nil, c.Name, source, uint64(seq), sets, elems, c.M, c.N)
		if _, err := sess.ingestSeq(source, uint64(seq), walRecord(sess, payload), sets, elems); err != nil {
			t.Fatal(err)
		}
	}
	payload, err := snapshot.ReadFileFS(fault.OS(), filepath.Join(sess.dur.dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return sess.dur.dir, payload
}

// writtenCheckpoint returns the payload writeCheckpoint writes for an
// estimator fed batches batches, one source per batch parity, at the WAL
// position past them. No goroutine outlives it: a fuzz worker must owe
// its coverage to the target alone.
func writtenCheckpoint(t testing.TB, c wire.Create, batches int) []byte {
	t.Helper()
	est, err := streamcover.NewEstimator(c.M, c.N, c.K, c.Alpha, streamcover.WithSeed(c.Seed), streamcover.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	dedup := map[uint64]uint64{}
	for seq := 1; seq <= batches; seq++ {
		if err := est.ProcessColumns(testBatch(c, seq)); err != nil {
			t.Fatal(err)
		}
		dedup[uint64(10+seq%2)] = uint64(seq)
	}
	sess := blankSession(c.Name, c.M, c.N, c.K, c.Alpha, c.Seed, Config{}.withDefaults(), nil)
	if sess.dur, err = openDurability(t.TempDir(), c.Name, 0, true, nil); err != nil {
		t.Fatal(err)
	}
	defer sess.dur.close()
	if err := sess.writeCheckpoint(est, uint64(batches), dedup, nil, time.Now()); err != nil {
		t.Fatal(err)
	}
	payload, err := snapshot.ReadFileFS(fault.OS(), filepath.Join(sess.dur.dir, checkpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// FuzzDecodeCheckpoint drives the checkpoint decoder, which parses bytes
// from disk and from a leader's bootstrap payload, with arbitrary input.
// It must never panic, and any state it accepts must encode and decode
// back to itself.
func FuzzDecodeCheckpoint(f *testing.F) {
	// kα ≥ m, Figure 1's trivial case: the estimator blob is a few bytes,
	// and the decoder treats it as opaque. Seeds of 100 KB, a fed
	// non-trivial session's, stall the fuzzer in minimization.
	c := wire.Create{Name: "fuzz", M: 8, N: 100, K: 2, Alpha: 4, Seed: 3}
	for _, p := range [][]byte{writtenCheckpoint(f, c, 0), writtenCheckpoint(f, c, 6)} {
		f.Add(p)
		f.Add(p[:len(p)/2])
		f.Add(p[:len(p)-1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		again, err := decodeCheckpoint(encodeCheckpoint(st))
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		// α round-trips as its bit pattern; compare it apart, since a NaN
		// is not DeepEqual to itself.
		if math.Float64bits(again.alpha) != math.Float64bits(st.alpha) {
			t.Fatalf("alpha %v came back as %v", st.alpha, again.alpha)
		}
		again.alpha, st.alpha = 0, 0
		if !reflect.DeepEqual(again, st) {
			t.Fatalf("checkpoint %+v came back as %+v", st, again)
		}
	})
}

// dirContents maps every file under root to its bytes (directories to
// nil).
func dirContents(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			out[path] = nil
			return err
		}
		out[path], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStartRefusesLegacyDataDir: kcoverd reads only what it writes. A
// session directory that holds an artifact of an older build — a
// checkpoint sealed as envelope version 1 (estimator encoding v1), a
// shard-era checkpoint with two estimator blobs, a WAL record of the
// retired unsequenced type 0x02 — must make Start fail with an error that
// names the artifact, and must stay byte-identical: neither recovery nor
// the orphan sweep may touch it. The failed recovery must close what it
// decoded: the 0x02 record fails replay after two records were applied,
// which started the estimator's engine helpers, and none may outlive the
// failed Start.
func TestStartRefusesLegacyDataDir(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c := wire.Create{Name: "old", M: 50, N: 500, K: 3, Alpha: 4, Seed: 1}
	var rowBlob bytes.Buffer
	if err := stream.WriteBinary(&rowBlob, stream.FromEdges([]stream.Edge{{Set: 1, Elem: 2}}), c.M, c.N); err != nil {
		t.Fatal(err)
	}
	unsequenced := binary.AppendUvarint([]byte{0x02}, uint64(len(c.Name)))
	unsequenced = append(append(unsequenced, c.Name...), rowBlob.Bytes()...)

	for _, tc := range []struct {
		name, artifact, detail string
		plant                  func(dir string, payload []byte) error
	}{
		{"envelope version 1", checkpointFile, "unsupported version 1", func(dir string, payload []byte) error {
			sealed := snapshot.Seal(payload)
			sealed[4] = 1 // the CRC covers only the payload
			return os.WriteFile(filepath.Join(dir, checkpointFile), sealed, 0o644)
		}},
		{"two estimators", checkpointFile, "2 estimators", func(dir string, payload []byte) error {
			st, err := decodeCheckpoint(payload)
			if err != nil {
				return err
			}
			if !bytes.Equal(encodeCheckpoint(st), payload) {
				return errors.New("a checkpoint does not re-encode to its own bytes")
			}
			blob := binary.AppendUvarint(nil, uint64(len(st.est)))
			blob = append(blob, st.est...)
			head := payload[:len(payload)-len(blob)-1] // up to the estimator count, 1
			two := append(append(append(append([]byte{}, head...), 2), blob...), blob...)
			return snapshot.WriteFile(filepath.Join(dir, checkpointFile), two)
		}},
		{"unsequenced WAL record", "wal", "record type 0x02", func(dir string, _ []byte) error {
			log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{NoSync: true})
			if err != nil {
				return err
			}
			defer log.Close()
			_, err = log.Append(unsequenced)
			return err
		}},
	} {
		dir, payload := checkpointedSession(t, c)
		if err := tc.plant(dir, payload); err != nil {
			t.Fatal(err)
		}
		dataDir := filepath.Dir(dir)
		before := dirContents(t, dataDir)
		helpers := engineHelpers()
		srv := New(Config{DataDir: dataDir, WALNoSync: true, CheckpointEvery: -1})
		err := srv.Start("127.0.0.1:0", "")
		srv.Abort()
		if err == nil {
			t.Fatalf("%s: Start recovered a legacy session directory", tc.name)
		}
		if got := engineHelpers() - helpers; got != 0 {
			t.Fatalf("%s: %d engine helpers outlived the failed Start", tc.name, got)
		}
		if msg := err.Error(); !strings.Contains(msg, filepath.Join(dir, tc.artifact)) || !strings.Contains(msg, tc.detail) {
			t.Fatalf("%s: error %q does not name %s (%s)", tc.name, msg, tc.artifact, tc.detail)
		}
		if after := dirContents(t, dataDir); !reflect.DeepEqual(after, before) {
			t.Fatalf("%s: a failed Start changed the data dir", tc.name)
		}
	}
}
