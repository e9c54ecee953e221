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

// updateGolden rewrites the v2 golden checkpoints. The committed files
// pin the checkpoint format across refactors of the sketch internals, so
// regenerate them only for a deliberate format change, never to make this
// test pass.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_v2_*.bin.gz")

// newGoldenEstimator is the seeded, never-written estimator behind the
// golden files.
func newGoldenEstimator(t *testing.T) *Estimator {
	t.Helper()
	est, err := NewEstimator(24, 100, 2, 4, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// goldenEstimator is the golden estimator after its first stream: small
// enough to commit, busy enough that every heavy-hitter candidate table
// has gone through refreshes.
func goldenEstimator(t *testing.T) *Estimator {
	t.Helper()
	est := newGoldenEstimator(t)
	if err := est.ProcessBatch(snapEdges(31, 24, 100, 6000)); err != nil {
		t.Fatal(err)
	}
	return est
}

// goldenBatch is the fixed batch fed to the decoded golden checkpoint.
func goldenBatch() []Edge { return snapEdges(32, 24, 100, 2500) }

// readGolden returns the decompressed contents of testdata/name.gz.
func readGolden(t testing.TB, name string) []byte {
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

// golden compares got with the v2 golden file name, or rewrites it under
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

// encodeGolden encodes est, failing the test on error.
func encodeGolden(t *testing.T, est *Estimator) []byte {
	t.Helper()
	b, err := est.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// decodeGolden decodes the golden file name, which must be sealed as
// envelope version 2.
func decodeGolden(t *testing.T, name string) *Estimator {
	t.Helper()
	data := readGolden(t, name)
	if data[4] != 2 {
		t.Fatalf("%s is sealed as version %d, want 2", name, data[4])
	}
	est, err := DecodeEstimator(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return est
}

// TestGoldenCheckpointBatch pins the checkpoint bytes. The live golden
// estimator — never written, after its stream, after a fixed batch —
// must encode exactly as the v2 golden files, each file must decode and
// re-encode byte-identically, and the fixed batch on the decoded
// checkpoint must encode as the after-batch golden.
func TestGoldenCheckpointBatch(t *testing.T) {
	est := newGoldenEstimator(t)
	golden(t, "golden_v2_fresh.bin", encodeGolden(t, est))
	est = goldenEstimator(t)
	golden(t, "golden_v2_checkpoint.bin", encodeGolden(t, est))
	if err := est.ProcessBatch(goldenBatch()); err != nil {
		t.Fatal(err)
	}
	golden(t, "golden_v2_after_batch.bin", encodeGolden(t, est))
	if *updateGolden {
		return
	}

	for _, name := range []string{"fresh.bin", "checkpoint.bin", "after_batch.bin"} {
		golden(t, "golden_v2_"+name, encodeGolden(t, decodeGolden(t, "golden_v2_"+name)))
	}
	dec := decodeGolden(t, "golden_v2_checkpoint.bin")
	if err := dec.ProcessBatch(goldenBatch()); err != nil {
		t.Fatal(err)
	}
	golden(t, "golden_v2_after_batch.bin", encodeGolden(t, dec))
}
