// Replication and cluster frames. A follower replicates a session by
// sending TRepSubscribe on a dedicated connection; the leader answers
// with an optional TRepSnapshot (checkpoint bootstrap when the follower
// is behind the leader's truncation horizon), then a one-way stream of
// TRepEntry frames — each carrying one committed WAL record at its exact
// log position — interleaved with TRepHeartbeat frames advertising the
// leader's durable head. Because WAL replay is bit-identical at a fixed
// worker count, a follower that appends each entry to its own log at the
// same position and applies it through the same decode path converges to
// a byte-identical estimator; replication correctness is checkable by
// comparing snapshot encodings.
//
// Payloads:
//
//	TRepSubscribe uvarint len(name), name, 8-byte LE applied position
//	              (the follower's watermark; the stream resumes at +1)
//	TRepSnapshot  8-byte LE WAL position the checkpoint covers, then the
//	              opaque checkpoint blob
//	TRepEntry     8-byte LE WAL position, then the raw WAL record
//	TRepHeartbeat 8-byte LE leader durable head position
//	TRole         uvarint len(name), name
//	TRoleInfo     1 byte role, uvarint len(leaderAddr), leaderAddr,
//	              8-byte LE applied position, 8-byte LE staleness nanos
//	TErrNotLeader uvarint len(leaderAddr), leaderAddr — the receiver does
//	              not lead this session; retry against leaderAddr (empty
//	              when the receiver does not know the leader)
package wire

import (
	"encoding/binary"
	"fmt"
)

// Cluster frame types.
const (
	// TRole asks a node for its role in a session and its watermark.
	TRole byte = 0x08
	// TRepSubscribe turns the connection into a replication stream.
	TRepSubscribe byte = 0x10

	// TErrNotLeader rejects leader-only work (ingest, create) sent to a
	// follower, naming the leader when known.
	TErrNotLeader byte = 0x84
	// TRoleInfo answers TRole.
	TRoleInfo byte = 0x85
	// TRepSnapshot bootstraps a subscriber from a checkpoint.
	TRepSnapshot byte = 0x90
	// TRepEntry ships one committed WAL record.
	TRepEntry byte = 0x91
	// TRepHeartbeat advertises the leader's durable head.
	TRepHeartbeat byte = 0x92
)

// Session roles.
const (
	RoleLeader   byte = 0
	RoleFollower byte = 1
)

// EncodeSubscribe frames a TRepSubscribe payload.
func EncodeSubscribe(name string, applied uint64) []byte {
	buf := appendName(nil, name)
	return binary.LittleEndian.AppendUint64(buf, applied)
}

// DecodeSubscribe parses a TRepSubscribe payload.
func DecodeSubscribe(p []byte) (name string, applied uint64, err error) {
	name, rest, err := decodeName(p)
	if err != nil {
		return "", 0, err
	}
	if len(rest) != 8 {
		return "", 0, fmt.Errorf("wire: bad subscribe tail (%d bytes)", len(rest))
	}
	return name, binary.LittleEndian.Uint64(rest), nil
}

// EncodeSnapshot frames a TRepSnapshot payload. buf is reused when
// capacity allows.
func EncodeSnapshot(buf []byte, walPos uint64, ckpt []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], walPos)
	return append(buf, ckpt...)
}

// DecodeSnapshot parses a TRepSnapshot payload. The blob aliases p.
func DecodeSnapshot(p []byte) (walPos uint64, ckpt []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("wire: truncated snapshot frame")
	}
	return binary.LittleEndian.Uint64(p), p[8:], nil
}

// EncodeEntry frames a TRepEntry payload. buf is reused when capacity
// allows — the shipper calls this once per record.
func EncodeEntry(buf []byte, pos uint64, rec []byte) []byte {
	buf = binary.LittleEndian.AppendUint64(buf[:0], pos)
	return append(buf, rec...)
}

// DecodeEntry parses a TRepEntry payload. The record aliases p.
func DecodeEntry(p []byte) (pos uint64, rec []byte, err error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("wire: truncated entry frame")
	}
	pos = binary.LittleEndian.Uint64(p)
	if pos == 0 {
		return 0, nil, fmt.Errorf("wire: zero entry position")
	}
	return pos, p[8:], nil
}

// EncodeHeartbeat frames a TRepHeartbeat payload.
func EncodeHeartbeat(head uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, head)
}

// DecodeHeartbeat parses a TRepHeartbeat payload.
func DecodeHeartbeat(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: bad heartbeat payload (%d bytes)", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// EncodeNotLeader frames a TErrNotLeader payload.
func EncodeNotLeader(leaderAddr string) []byte {
	return appendName(nil, leaderAddr)
}

// DecodeNotLeader parses a TErrNotLeader payload.
func DecodeNotLeader(p []byte) (string, error) {
	addr, rest, err := decodeName(p)
	if err != nil {
		return "", fmt.Errorf("wire: bad not-leader payload")
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after leader addr", len(rest))
	}
	return addr, nil
}

// RoleInfo is the payload of a TRoleInfo frame: a node's view of one
// session's placement and replication progress.
type RoleInfo struct {
	Role       byte   // RoleLeader or RoleFollower
	LeaderAddr string // where the node believes the leader lives
	Applied    uint64 // the node's applied WAL watermark
	// StalenessNanos is the watermark age: 0 when caught up, else the
	// time since the replica was last known caught up. Leaders report 0.
	StalenessNanos int64
}

// Encode serializes ri.
func (ri RoleInfo) Encode() []byte {
	buf := []byte{ri.Role}
	buf = appendName(buf, ri.LeaderAddr)
	buf = binary.LittleEndian.AppendUint64(buf, ri.Applied)
	return binary.LittleEndian.AppendUint64(buf, uint64(ri.StalenessNanos))
}

// DecodeRoleInfo parses a TRoleInfo payload.
func DecodeRoleInfo(p []byte) (RoleInfo, error) {
	var ri RoleInfo
	if len(p) < 1 {
		return ri, fmt.Errorf("wire: truncated role info")
	}
	ri.Role = p[0]
	if ri.Role != RoleLeader && ri.Role != RoleFollower {
		return ri, fmt.Errorf("wire: unknown role %d", ri.Role)
	}
	addr, rest, err := decodeName(p[1:])
	if err != nil {
		return ri, fmt.Errorf("wire: bad role leader addr")
	}
	ri.LeaderAddr = addr
	if len(rest) != 16 {
		return ri, fmt.Errorf("wire: bad role info tail (%d bytes)", len(rest))
	}
	ri.Applied = binary.LittleEndian.Uint64(rest)
	ri.StalenessNanos = int64(binary.LittleEndian.Uint64(rest[8:]))
	return ri, nil
}
