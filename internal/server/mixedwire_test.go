package server_test

import (
	"bufio"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"streamcover"
	"streamcover/internal/server"
	"streamcover/internal/stream"
	"streamcover/internal/wire"
)

// rawConn is a frame-level client for tests that need to pick the wire
// encoding (row MKC1 vs columnar MKC2) per batch — the real client always
// chooses for itself.
type rawConn struct {
	conn    net.Conn
	br      *bufio.Reader
	scratch []byte
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{conn: conn, br: bufio.NewReader(conn), scratch: make([]byte, 1<<12)}
}

// roundTrip writes one frame and reads the response frame.
func (r *rawConn) roundTrip(t *testing.T, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := wire.WriteFrame(r.conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	rtyp, rpayload, err := wire.ReadFrame(r.br, r.scratch)
	if err != nil {
		t.Fatal(err)
	}
	return rtyp, rpayload
}

// expectOK writes one frame and requires a TOK back.
func (r *rawConn) expectOK(t *testing.T, typ byte, payload []byte) {
	t.Helper()
	if rtyp, rpayload := r.roundTrip(t, typ, payload); rtyp != wire.TOK {
		t.Fatalf("frame 0x%02x answered 0x%02x: %s", typ, rtyp, rpayload)
	}
}

// encodeMixedBatch encodes batch i over one of the four ingest shapes —
// {row, columnar} × {plain, sequenced} — cycling so a session's WAL holds
// every combination interleaved.
func encodeMixedBatch(i int, name string, batch []streamcover.Edge, source, seq uint64) (byte, []byte) {
	rows := make([]stream.Edge, len(batch))
	sets := make([]uint32, len(batch))
	elems := make([]uint32, len(batch))
	for j, e := range batch {
		rows[j] = stream.Edge{Set: e.Set, Elem: e.Elem}
		sets[j], elems[j] = e.Set, e.Elem
	}
	switch i % 4 {
	case 0:
		return wire.TIngest, wire.EncodeIngest(nil, name, rows, durM, durN)
	case 1:
		return wire.TIngest, wire.EncodeIngestColumns(nil, name, sets, elems, durM, durN)
	case 2:
		return wire.TIngestSeq, wire.EncodeIngestSeq(nil, name, source, seq, rows, durM, durN)
	default:
		return wire.TIngestSeq, wire.EncodeIngestSeqColumns(nil, name, source, seq, sets, elems, durM, durN)
	}
}

// feedMixed streams edges to the session in fixed-size batches cycling
// through all four ingest shapes, acking each.
func feedMixed(t *testing.T, r *rawConn, name string, edges []streamcover.Edge, batchSize int, seq *uint64) {
	t.Helper()
	for i, off := 0, 0; off < len(edges); i, off = i+1, off+batchSize {
		end := off + batchSize
		if end > len(edges) {
			end = len(edges)
		}
		*seq++
		typ, payload := encodeMixedBatch(i, name, edges[off:end], 777, *seq)
		r.expectOK(t, typ, payload)
	}
}

func queryRaw(t *testing.T, r *rawConn, name string) wire.Result {
	t.Helper()
	typ, payload := r.roundTrip(t, wire.TQuery, wire.EncodeRef(name))
	if typ != wire.TResult {
		t.Fatalf("query answered 0x%02x: %s", typ, payload)
	}
	res, err := wire.DecodeResult(payload)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameWireResult(t *testing.T, got, want wire.Result, what string) {
	t.Helper()
	if got.Edges != want.Edges {
		t.Fatalf("%s: %d edges, want %d", what, got.Edges, want.Edges)
	}
	if got.Coverage != want.Coverage || got.Feasible != want.Feasible {
		t.Fatalf("%s: (%v, %v), want bit-identical (%v, %v)", what, got.Coverage, got.Feasible, want.Coverage, want.Feasible)
	}
	if !reflect.DeepEqual(got.SetIDs, want.SetIDs) || got.SpaceWords != want.SpaceWords {
		t.Fatalf("%s: sets %v (%d words), want %v (%d words)",
			what, got.SetIDs, got.SpaceWords, want.SetIDs, want.SpaceWords)
	}
}

// mixedReference answers what an uninterrupted daemon holds after the
// stream, whatever encodings it arrived in: the in-process reference.
func mixedReference(t *testing.T, edges []streamcover.Edge) wire.Result {
	t.Helper()
	r := referenceResult(t, edges)
	return wire.Result{Coverage: r.Coverage, Feasible: r.Feasible, SpaceWords: r.SpaceWords,
		Edges: r.Edges, SetIDs: r.SetIDs}
}

// TestMixedWireWALRecovery is the mixed-encoding durability suite: one
// session ingests row and columnar batches interleaved (plain and
// sequenced), with WAL segments small enough that the mixed log rotates
// several times, a checkpoint lands mid-stream, and the daemon then dies
// with SIGKILL semantics. Recovery must replay the mixed tail — row and
// columnar records through the same fused decoder — to a state
// bit-identical to a crash-free daemon's.
func TestMixedWireWALRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
		WALSegmentBytes: 4096, // ~1 batch per segment: the tail spans rotations
	}
	edges := durEdges(5, 12000)
	var seq uint64

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	r1 := dialRaw(t, s1.TCPAddr().String())
	create := wire.Create{Name: "mixed", M: durM, N: durN, K: durK, Alpha: durAlpha, Seed: durSeed}
	r1.expectOK(t, wire.TCreate, create.Encode())
	feedMixed(t, r1, "mixed", edges[:6000], 500, &seq)
	if err := s1.CheckpointAll(); err != nil {
		t.Fatal(err)
	}
	// These mixed batches live only in the WAL tail past the checkpoint.
	feedMixed(t, r1, "mixed", edges[6000:], 500, &seq)
	s1.Abort()

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	if got := s2.Metrics().ReplayBatches.Load(); got != 12 {
		t.Fatalf("recovery replayed %d WAL batches, want the 12 mixed tail batches", got)
	}
	r2 := dialRaw(t, s2.TCPAddr().String())
	got := queryRaw(t, r2, "mixed")
	requireSameWireResult(t, got, mixedReference(t, edges), "recovered mixed-wire estimate")
}

// TestMixedWireTornTailRecovery tears the final record of a mixed log —
// a columnar sequenced batch, the shape a torn disk write would hit last
// — and requires recovery to come up cleanly on the intact prefix,
// bit-identical to a daemon that never saw the torn batch.
func TestMixedWireTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{
		QueueDepth: 8,
		DataDir:    dir, CheckpointEvery: -1, WALNoSync: true,
	}
	edges := durEdges(6, 8000)
	var seq uint64

	s1 := startDurServer(t, cfg, "127.0.0.1:0")
	r1 := dialRaw(t, s1.TCPAddr().String())
	create := wire.Create{Name: "torn", M: durM, N: durN, K: durK, Alpha: durAlpha, Seed: durSeed}
	r1.expectOK(t, wire.TCreate, create.Encode())
	feedMixed(t, r1, "torn", edges[:7500], 500, &seq)
	// Batch index 15 ≡ 3 (mod 4): the last record is columnar sequenced.
	seq++
	typ, payload := encodeMixedBatch(3, "torn", edges[7500:], 777, seq)
	r1.expectOK(t, typ, payload)
	s1.Abort()

	// Tear the tail: chop bytes off the end of the newest WAL segment, as
	// a crash mid-write would.
	seg := newestWALSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := startDurServer(t, cfg, "127.0.0.1:0")
	defer s2.Abort()
	r2 := dialRaw(t, s2.TCPAddr().String())
	got := queryRaw(t, r2, "torn")
	requireSameWireResult(t, got, mixedReference(t, edges[:7500]), "post-torn-tail estimate")
}

// newestWALSegment returns the path of the highest-numbered WAL segment
// under the single session directory inside dataDir.
func newestWALSegment(t *testing.T, dataDir string) string {
	t.Helper()
	sessions, err := os.ReadDir(dataDir)
	if err != nil || len(sessions) != 1 {
		t.Fatalf("want one session dir under %s: %v %v", dataDir, sessions, err)
	}
	walDir := filepath.Join(dataDir, sessions[0].Name(), "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		t.Fatalf("no WAL segments in %s", walDir)
	}
	sort.Strings(segs)
	return filepath.Join(walDir, segs[len(segs)-1])
}
