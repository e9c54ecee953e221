package wire

import (
	"bytes"
	"testing"
	"time"
)

func TestSubscribeRoundTrip(t *testing.T) {
	p := EncodeSubscribe("sess", 42)
	name, applied, err := DecodeSubscribe(p)
	if err != nil {
		t.Fatal(err)
	}
	if name != "sess" || applied != 42 {
		t.Fatalf("got (%q, %d), want (sess, 42)", name, applied)
	}
	if _, _, err := DecodeSubscribe(p[:len(p)-1]); err == nil {
		t.Fatal("truncated subscribe decoded")
	}
}

func TestSnapshotEntryRoundTrip(t *testing.T) {
	blob := []byte("checkpoint-bytes")
	p := EncodeSnapshot(nil, 99, blob)
	pos, ckpt, err := DecodeSnapshot(p)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 99 || !bytes.Equal(ckpt, blob) {
		t.Fatalf("snapshot round trip mismatch: pos=%d", pos)
	}

	rec := []byte{1, 2, 3, 4}
	p = EncodeEntry(p, 7, rec) // reuse buf across frame kinds
	pos, got, err := DecodeEntry(p)
	if err != nil {
		t.Fatal(err)
	}
	if pos != 7 || !bytes.Equal(got, rec) {
		t.Fatalf("entry round trip mismatch: pos=%d rec=%v", pos, got)
	}
	if _, _, err := DecodeEntry(EncodeEntry(nil, 0, rec)); err == nil {
		t.Fatal("zero entry position decoded")
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	head, err := DecodeHeartbeat(EncodeHeartbeat(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	if head != 1<<40 {
		t.Fatalf("heartbeat head %d", head)
	}
	if _, err := DecodeHeartbeat([]byte{1, 2}); err == nil {
		t.Fatal("short heartbeat decoded")
	}
}

func TestQueryStaleRoundTrip(t *testing.T) {
	for _, bound := range []time.Duration{0, 5 * time.Second, AnyStaleness} {
		name, got, err := DecodeQuery(EncodeQuery("s", bound))
		if err != nil {
			t.Fatal(err)
		}
		if name != "s" || got != bound {
			t.Fatalf("got (%q, %v), want (%q, %v)", name, got, "s", bound)
		}
	}
	if _, _, err := DecodeQuery(EncodeQuery("s", -1)); err == nil {
		t.Fatal("negative staleness bound decoded")
	}
	if _, _, err := DecodeQuery(EncodeRef("s")); err == nil {
		t.Fatal("query without a staleness bound decoded")
	}
}

func TestNotLeaderRoundTrip(t *testing.T) {
	for _, addr := range []string{"", "10.0.0.7:4780"} {
		got, err := DecodeNotLeader(EncodeNotLeader(addr))
		if err != nil {
			t.Fatal(err)
		}
		if got != addr {
			t.Fatalf("got %q, want %q", got, addr)
		}
	}
}

func TestRoleInfoRoundTrip(t *testing.T) {
	ri := RoleInfo{
		Role:           RoleFollower,
		LeaderAddr:     "127.0.0.1:9999",
		Applied:        123456,
		StalenessNanos: 42_000,
	}
	got, err := DecodeRoleInfo(ri.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got != ri {
		t.Fatalf("role info round trip: got %+v, want %+v", got, ri)
	}
	bad := ri
	bad.Role = 9
	if _, err := DecodeRoleInfo(bad.Encode()); err == nil {
		t.Fatal("unknown role decoded")
	}
}
