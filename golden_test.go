package streamcover

import (
	"bytes"
	"compress/gzip"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden rewrites the golden checkpoints. The committed files pin
// the checkpoint format across refactors of the sketch internals, so
// regenerate them only for a deliberate format change, never to make this
// test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.bin.gz")

// goldenEstimator is the seeded estimator behind the golden files: small
// enough to commit, busy enough that every heavy-hitter candidate table
// has gone through refreshes.
func goldenEstimator(t *testing.T) *Estimator {
	t.Helper()
	est, err := NewEstimator(24, 100, 2, 4, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if err := est.ProcessBatch(snapEdges(31, 24, 100, 6000)); err != nil {
		t.Fatal(err)
	}
	return est
}

// goldenBatch is the fixed batch fed to the decoded golden checkpoint.
func goldenBatch() []Edge { return snapEdges(32, 24, 100, 2500) }

// readGolden returns the decompressed contents of testdata/name.gz (the
// checkpoints are mostly zero counters and gzip to a few percent).
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name+".gz"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// golden compares got with the golden file name, or rewrites it under
// -update-golden.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	if *updateGolden {
		var buf bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&buf, gzip.BestCompression)
		zw.Write(got)
		zw.Close()
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", name+".gz"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := readGolden(t, name); !bytes.Equal(got, want) {
		t.Fatalf("%s: encoding differs from the golden file (%d vs %d bytes)", name, len(got), len(want))
	}
}

// TestGoldenCheckpointBatch pins the checkpoint bytes: a committed
// checkpoint must decode and re-encode byte-identically, and the decoded
// estimator fed a fixed batch must encode exactly as the committed
// post-batch checkpoint. Both files were written before the heavy-hitter
// candidate priorities were deleted from memory, so this holds the format
// (including the canonical per-candidate weight word) steady across it.
func TestGoldenCheckpointBatch(t *testing.T) {
	if *updateGolden {
		est := goldenEstimator(t)
		base, err := est.Encode()
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "golden_checkpoint.bin", base)
		if err := est.ProcessBatch(goldenBatch()); err != nil {
			t.Fatal(err)
		}
		after, err := est.Encode()
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "golden_after_batch.bin", after)
		return
	}
	dec, err := DecodeEstimator(readGolden(t, "golden_checkpoint.bin"))
	if err != nil {
		t.Fatal(err)
	}
	re, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "golden_checkpoint.bin", re)

	// The current code builds the same checkpoint from scratch.
	fresh, err := goldenEstimator(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "golden_checkpoint.bin", fresh)

	if err := dec.ProcessBatch(goldenBatch()); err != nil {
		t.Fatal(err)
	}
	after, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "golden_after_batch.bin", after)
}
