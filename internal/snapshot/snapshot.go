// Package snapshot frames serialized estimator state (and any other
// durable kcoverd artifact) in a versioned, checksummed envelope and
// writes it to disk atomically. The envelope is deliberately payload
// agnostic: the root facade's Estimator.Encode produces the payload, this
// package guarantees that whatever comes back out of Open/ReadFile is
// byte-identical to what went in or an error — torn writes, truncation
// and bit rot all fail the CRC before a decoder ever sees the bytes.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"

	"streamcover/internal/fault"
)

// Envelope layout: magic (4) | version (1) | payload CRC-32C (4, LE) |
// payload length (8, LE) | payload.
const (
	magic      = "SCSN"
	headerSize = 4 + 1 + 4 + 8

	// Version is the envelope version Seal writes and the only one Open
	// accepts. Payload formats are not self-describing, so a version bump
	// is the only safe evolution mechanism. Version 2 is the estimator
	// encoding v2, whose CountSketches hold only their stored cells.
	// Version 1, which wrote every row at full width, is no longer read:
	// Open rejects it, naming the version.
	Version = 2

	// MaxPayload bounds how large a payload ReadFile/Open will accept, so
	// a corrupt length field cannot trigger an absurd allocation. A
	// kcoverd checkpoint holds one session's estimator blob; a
	// bulk-ingest-sized session (m=2000, n=100000) writes about 9 MB.
	MaxPayload = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal wraps a payload in the envelope.
func Seal(payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	copy(out, magic)
	out[4] = Version
	binary.LittleEndian.PutUint32(out[5:9], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(out[9:17], uint64(len(payload)))
	copy(out[headerSize:], payload)
	return out
}

// Open validates an envelope and returns the payload (aliasing data).
func Open(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("snapshot: truncated envelope (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q", data[:4])
	}
	if v := data[4]; v != Version {
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	wantCRC := binary.LittleEndian.Uint32(data[5:9])
	n := binary.LittleEndian.Uint64(data[9:17])
	if n > MaxPayload {
		return nil, fmt.Errorf("snapshot: implausible payload length %d", n)
	}
	if uint64(len(data)-headerSize) != n {
		return nil, fmt.Errorf("snapshot: payload is %d bytes, header says %d", len(data)-headerSize, n)
	}
	payload := data[headerSize:]
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("snapshot: payload CRC mismatch (got %08x, want %08x)", got, wantCRC)
	}
	return payload, nil
}

// WriteFile seals the payload and writes it to path atomically on the
// real filesystem. See WriteFileFS.
func WriteFile(path string, payload []byte) error {
	return WriteFileFS(fault.OS(), path, payload)
}

// WriteFileFS seals the payload and writes it to path atomically: the
// envelope goes to a temporary file in the same directory, is fsynced,
// renamed over path, and the directory is fsynced so the rename itself is
// durable. A crash at any point leaves either the old snapshot or the new
// one, never a torn file at path (it can leak the temporary file —
// SweepTemps collects those on the next startup).
func WriteFileFS(fsys fault.FS, path string, payload []byte) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer fsys.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(Seal(payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return syncDir(fsys, dir)
}

// ReadFile reads path from the real filesystem and returns the validated
// payload.
func ReadFile(path string) ([]byte, error) {
	return ReadFileFS(fault.OS(), path)
}

// ReadFileFS reads path and returns the validated payload.
func ReadFileFS(fsys fault.FS, path string) ([]byte, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := Open(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return payload, nil
}

// SweepTemps removes temporary files that a crash between CreateTemp and
// Rename left behind in dir: anything matching <base>.tmp* for the given
// snapshot base name. Returns how many were removed. Meant for startup
// recovery, before any writer is active in dir.
func SweepTemps(fsys fault.FS, dir, base string) (int, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	removed := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, base+".tmp") {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
			return removed, fmt.Errorf("snapshot: %w", err)
		}
		removed++
	}
	return removed, nil
}

func syncDir(fsys fault.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: fsync %s: %w", dir, err)
	}
	return nil
}
