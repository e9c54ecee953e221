// Package wire defines the framed TCP protocol spoken between kcoverd and
// its clients. Every message is one frame:
//
//	1 byte  type
//	4 bytes little-endian payload length
//	payload
//
// Requests reference sessions by name, so connections are stateless and
// any number of clients may feed one session. Responses arrive in request
// order (the server handles each connection serially), which lets clients
// pipeline ingest batches and match acks by position.
//
// Payloads:
//
//	TCreate     uvarint len(name), name, uvarint m, uvarint n, uvarint k,
//	            8-byte LE float64 alpha, 8-byte LE int64 seed
//	TIngestSeq  uvarint len(name), name, uvarint source, uvarint seq,
//	            batch blob — a sequenced ingest: source is the client's
//	            random nonzero identity, seq its per-session batch counter
//	            starting at 1. The server logs the batch durably before
//	            acking and dedups on (source, seq), so a client that
//	            resends after a reconnect gets exactly-once application
//	            even across a server crash.
//	TQuery      uvarint len(name), name, 8-byte LE max staleness nanos —
//	            a leader always answers; a follower answers from its
//	            replica only if its watermark age is within the bound,
//	            else TErrRetry (AnyStaleness accepts any replica state)
//	TClose      uvarint len(name), name
//	TOK         empty
//	TErr        UTF-8 error message
//	TResult     8-byte LE float64 coverage, 1 byte feasible, uvarint space
//	            words, uvarint edges, uvarint count, count × uvarint set IDs
//
// A batch blob is columnar "MKC2" (stream.AppendBinaryColumns) and its
// declared dims must equal the session's. TIngestSeq is the only ingest
// frame. Type 0x02, the unsequenced ingest of earlier clients, is retired:
// a server answers it as any unknown type, with TErr; so is type 0x07,
// their staleness-bounded query, which TQuery's bound replaces. A row
// "MKC1" blob (stream.WriteBinary's file format) is not a batch blob
// either.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"time"
)

// Frame types.
const (
	TCreate byte = 0x01
	TQuery  byte = 0x03
	TClose  byte = 0x04
	// TPing (empty payload → TOK) is the pipeline barrier: because
	// responses are strictly ordered, a ping's ack proves every earlier
	// frame on the connection was handled.
	TPing byte = 0x05
	// TIngestSeq is the ingest frame: the payload carries a (source,
	// sequence) pair the server dedups on, and the ack implies the batch
	// is durable in the session's WAL (when the server runs with a data
	// dir).
	TIngestSeq byte = 0x06

	TOK     byte = 0x80
	TErr    byte = 0x81
	TResult byte = 0x82
	// TErrRetry is a transient rejection: the server is degraded (a
	// durability fault is being repaired) or read-only (disk full) and the
	// request was NOT applied. Unlike TErr it is an invitation to retry
	// the same request later — a client must not treat it as fatal and
	// must not drop the batch it covers.
	TErrRetry byte = 0x83
)

// MaxFrame bounds a frame payload (64 MiB) so a corrupt length prefix
// cannot make a peer allocate unboundedly.
const MaxFrame = 1 << 26

// MaxName bounds session names.
const MaxName = 256

// WriteFrame writes one frame. The caller batches via a bufio.Writer and
// decides when to flush.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame payload %d exceeds limit %d", len(payload), MaxFrame)
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrameInto reads one frame into *scratch, growing it in place (next
// power of two, capped at MaxFrame) when the payload doesn't fit, so the
// enlarged buffer survives into later calls and a connection carrying
// steady large batches allocates once instead of per frame. The returned
// payload aliases *scratch and is only valid until the next call.
func ReadFrameInto(r io.Reader, scratch *[]byte) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: frame payload %d exceeds limit %d", n, MaxFrame)
	}
	if int(n) > cap(*scratch) {
		grown := uint64(MaxFrame)
		if n < MaxFrame {
			grown = 1 << bits.Len64(uint64(n-1))
		}
		*scratch = make([]byte, grown)
	}
	payload = (*scratch)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return hdr[0], payload, nil
}

func appendName(buf []byte, name string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

func decodeName(p []byte) (string, []byte, error) {
	l, w := binary.Uvarint(p)
	if w <= 0 || l > MaxName || uint64(len(p)-w) < l {
		return "", nil, fmt.Errorf("wire: bad session name")
	}
	return string(p[w : w+int(l)]), p[w+int(l):], nil
}

// Create is the payload of a TCreate frame.
type Create struct {
	Name    string
	M, N, K int
	Alpha   float64
	Seed    int64
}

// Encode serializes c.
func (c Create) Encode() []byte {
	buf := appendName(nil, c.Name)
	buf = binary.AppendUvarint(buf, uint64(c.M))
	buf = binary.AppendUvarint(buf, uint64(c.N))
	buf = binary.AppendUvarint(buf, uint64(c.K))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Alpha))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Seed))
	return buf
}

// DecodeCreate parses a TCreate payload.
func DecodeCreate(p []byte) (Create, error) {
	var c Create
	name, rest, err := decodeName(p)
	if err != nil {
		return c, err
	}
	c.Name = name
	for _, dst := range []*int{&c.M, &c.N, &c.K} {
		v, w := binary.Uvarint(rest)
		if w <= 0 || v > 1<<31 {
			return c, fmt.Errorf("wire: bad create dims")
		}
		*dst = int(v)
		rest = rest[w:]
	}
	if len(rest) != 16 {
		return c, fmt.Errorf("wire: bad create tail (%d bytes)", len(rest))
	}
	c.Alpha = math.Float64frombits(binary.LittleEndian.Uint64(rest))
	c.Seed = int64(binary.LittleEndian.Uint64(rest[8:]))
	return c, nil
}

// EncodeRef frames a session reference (TClose / TRole payload).
func EncodeRef(name string) []byte { return appendName(nil, name) }

// DecodeRef parses a TClose / TRole payload.
func DecodeRef(p []byte) (string, error) {
	name, rest, err := decodeName(p)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after session name", len(rest))
	}
	return name, nil
}

// AnyStaleness is the staleness bound of a query that takes a replica's
// state as it is.
const AnyStaleness time.Duration = math.MaxInt64

// EncodeQuery frames a TQuery payload. maxStale bounds the age of a
// follower's watermark; 0 demands a fully caught-up replica.
func EncodeQuery(name string, maxStale time.Duration) []byte {
	buf := appendName(nil, name)
	return binary.LittleEndian.AppendUint64(buf, uint64(maxStale))
}

// DecodeQuery parses a TQuery payload.
func DecodeQuery(p []byte) (name string, maxStale time.Duration, err error) {
	name, rest, err := decodeName(p)
	if err != nil {
		return "", 0, err
	}
	if len(rest) != 8 {
		return "", 0, fmt.Errorf("wire: bad query tail (%d bytes)", len(rest))
	}
	maxStale = time.Duration(binary.LittleEndian.Uint64(rest))
	if maxStale < 0 {
		return "", 0, fmt.Errorf("wire: negative staleness bound")
	}
	return name, maxStale, nil
}

// Result is the payload of a TResult frame — the estimator's answer plus
// the server-side edge count.
type Result struct {
	Coverage   float64
	Feasible   bool
	SpaceWords int
	Edges      int
	SetIDs     []uint32
}

// Encode serializes r.
func (r Result) Encode() []byte {
	buf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(r.Coverage))
	if r.Feasible {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(r.SpaceWords))
	buf = binary.AppendUvarint(buf, uint64(r.Edges))
	buf = binary.AppendUvarint(buf, uint64(len(r.SetIDs)))
	for _, id := range r.SetIDs {
		buf = binary.AppendUvarint(buf, uint64(id))
	}
	return buf
}

// DecodeResult parses a TResult payload.
func DecodeResult(p []byte) (Result, error) {
	var r Result
	if len(p) < 9 {
		return r, fmt.Errorf("wire: truncated result")
	}
	r.Coverage = math.Float64frombits(binary.LittleEndian.Uint64(p))
	r.Feasible = p[8] != 0
	rest := p[9:]
	next := func(what string) (uint64, error) {
		v, w := binary.Uvarint(rest)
		if w <= 0 {
			return 0, fmt.Errorf("wire: bad result %s", what)
		}
		rest = rest[w:]
		return v, nil
	}
	sw, err := next("space")
	if err != nil {
		return r, err
	}
	ed, err := next("edges")
	if err != nil {
		return r, err
	}
	cnt, err := next("count")
	if err != nil {
		return r, err
	}
	if cnt > 1<<20 {
		return r, fmt.Errorf("wire: implausible result id count %d", cnt)
	}
	r.SpaceWords, r.Edges = int(sw), int(ed)
	r.SetIDs = make([]uint32, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		id, err := next("set id")
		if err != nil {
			return r, err
		}
		r.SetIDs = append(r.SetIDs, uint32(id))
	}
	if len(rest) != 0 {
		return r, fmt.Errorf("wire: %d trailing bytes after result", len(rest))
	}
	return r, nil
}
