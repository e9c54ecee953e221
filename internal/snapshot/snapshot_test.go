package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB, 0x00, 0x7F}, 4096)} {
		sealed := Seal(payload)
		got, err := Open(sealed)
		if err != nil {
			t.Fatalf("payload %d bytes: %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) || sealed[4] != Version {
			t.Fatalf("payload %d bytes: round trip changed content or version (%d)", len(payload), sealed[4])
		}
	}
}

// TestOpenRejectsOlderVersion: an envelope sealed by the previous format
// version (estimator encoding v1) no longer opens, and the error names
// the version, so a data dir that still holds one fails loudly. Its CRC
// covers only the payload, so the version byte is all that differs.
func TestOpenRejectsOlderVersion(t *testing.T) {
	sealed := Seal([]byte("a v1 estimator blob"))
	for _, v := range []byte{0, 1, Version + 1} {
		sealed[4] = v
		_, err := Open(sealed)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d", v)) {
			t.Fatalf("version %d: err = %v, want an unsupported-version error", v, err)
		}
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	sealed := Seal([]byte("the sketch state"))
	cases := map[string][]byte{
		"empty":          nil,
		"short":          sealed[:8],
		"bad magic":      append([]byte("XXXX"), sealed[4:]...),
		"bad version":    append(append([]byte{}, sealed[:4]...), append([]byte{99}, sealed[5:]...)...),
		"truncated body": sealed[:len(sealed)-3],
		"extended body":  append(append([]byte{}, sealed...), 0),
	}
	flipped := append([]byte{}, sealed...)
	flipped[len(flipped)-1] ^= 0x01
	cases["payload bit flip"] = flipped
	crcFlip := append([]byte{}, sealed...)
	crcFlip[6] ^= 0x01
	cases["crc bit flip"] = crcFlip
	for name, data := range cases {
		if _, err := Open(data); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "est.snap")
	payload := bytes.Repeat([]byte("snapshot"), 1000)
	if err := WriteFile(path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("file round trip changed content")
	}
	// Overwrite must replace atomically and leave no temp files behind.
	if err := WriteFile(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadFile(path); err != nil || string(got) != "v2" {
		t.Fatalf("overwrite: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files in snapshot dir: %v", entries)
	}
}

func TestReadFileRejectsTornWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "est.snap")
	if err := WriteFile(path, []byte("a complete snapshot payload")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("torn snapshot must fail validation")
	}
}

// FuzzOpen: arbitrary bytes must never panic, and anything Open accepts
// must be a faithful envelope (re-sealing the payload reproduces it).
func FuzzOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add(Seal(nil))
	f.Add(Seal([]byte("payload")))
	f.Add([]byte("SCSN garbage that is not an envelope"))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Open(data)
		if err != nil {
			return
		}
		if !bytes.Equal(Seal(payload), data) {
			t.Fatal("accepted envelope is not canonical")
		}
	})
}
