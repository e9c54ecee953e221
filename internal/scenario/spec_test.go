package scenario

import (
	"strings"
	"testing"
	"time"
)

// minimalSpec is a valid spec that each error-case test mutates.
const minimalSpec = `{
  "name": "t",
  "seed": 1,
  "workload": {"family": "uniform", "n": 100, "m": 20, "k": 3},
  "phases": [{"name": "p", "duration": "1s"}]
}`

func TestParseSpecMinimalDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(minimalSpec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Workload.Order != "shuffled" || s.Workload.Alpha != 4 {
		t.Fatalf("workload defaults not applied: %+v", s.Workload)
	}
	if s.Fleet.Connections != 2 || s.Fleet.BatchEdges != 2048 || s.Fleet.MaxPending != 32 {
		t.Fatalf("fleet defaults not applied: %+v", s.Fleet)
	}
	if s.Daemon.QueueDepth != 64 || s.Daemon.RetryMin.Duration != 25*time.Millisecond {
		t.Fatalf("daemon defaults not applied: %+v", s.Daemon)
	}
	if s.TotalDuration() != time.Second {
		t.Fatalf("total duration = %v", s.TotalDuration())
	}
}

// TestParseSpecErrors is the satellite table: every malformed spec must be
// rejected with a message naming the problem — silent acceptance of a
// typo is how a "passing" load test stops testing anything.
func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{
			name: "unknown top-level field",
			json: `{"name":"t","seed":1,"workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s"}],"bogus":1}`,
			want: "unknown field",
		},
		{
			name: "unknown workload field",
			json: `{"name":"t","workload":{"family":"uniform","avgsize":9},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "unknown field",
		},
		{
			name: "unknown gate field",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s"}],"gates":{"min_edge_rate":5}}`,
			want: "unknown field",
		},
		{
			name: "trailing document",
			json: minimalSpec + `{"name":"second"}`,
			want: "trailing data",
		},
		{
			name: "missing name",
			json: `{"workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "missing name",
		},
		{
			name: "unknown family",
			json: `{"name":"t","workload":{"family":"nope"},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "unknown workload family",
		},
		{
			name: "unknown order",
			json: `{"name":"t","workload":{"family":"uniform","order":"sorted"},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "unknown arrival order",
		},
		{
			name: "no phases",
			json: `{"name":"t","workload":{"family":"uniform"}}`,
			want: "no phases",
		},
		{
			name: "negative phase duration",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"-2s"}]}`,
			want: "must be positive",
		},
		{
			name: "zero phase duration",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"0s"}]}`,
			want: "must be positive",
		},
		{
			name: "duration not a string",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":1000}]}`,
			want: "durations are strings",
		},
		{
			name: "malformed duration",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"fast"}]}`,
			want: "invalid duration",
		},
		{
			name: "negative rate",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s","rate":-5}]}`,
			want: "negative rate",
		},
		{
			name: "negative fleet size",
			json: `{"name":"t","workload":{"family":"uniform"},"fleet":{"connections":-1},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "fleet.connections is negative",
		},
		{
			name: "unknown fault kind",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s"}],"faults":[{"kind":"meteor","at":"0s","duration":"1s"}]}`,
			want: "unknown kind",
		},
		{
			name: "fault window past run end",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"1s"}],"faults":[{"kind":"io_latency","at":"500ms","duration":"1s","delay":"1ms"}]}`,
			want: "extends past the run end",
		},
		{
			name: "negative fault offset",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"1s"}],"faults":[{"kind":"fail_syncs","at":"-1s","duration":"500ms"}]}`,
			want: "negative offset",
		},
		{
			name: "overlapping same-kind fault windows",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"10s"}],"faults":[
				{"kind":"fail_syncs","at":"1s","duration":"3s"},
				{"kind":"fail_syncs","at":"2s","duration":"1s"}]}`,
			want: "windows overlap",
		},
		{
			name: "proxy fault without proxy",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"2s"}],"faults":[{"kind":"partition","at":"0s","duration":"1s"}]}`,
			want: "needs daemon.proxy",
		},
		{
			name: "disk fault without durability",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"2s"}],"faults":[{"kind":"disk_full","at":"0s","duration":"1s","budget":1024}]}`,
			want: "needs daemon.durable",
		},
		{
			name: "disk_full without budget",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"2s"}],"faults":[{"kind":"disk_full","at":"0s","duration":"1s"}]}`,
			want: "budget",
		},
		{
			name: "drop_conns with a window",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"proxy":true},"phases":[{"name":"p","duration":"2s"}],"faults":[{"kind":"drop_conns","at":"0s","duration":"1s"}]}`,
			want: "instantaneous",
		},
		{
			name: "restart without kill",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"2s"}],"lifecycle":[{"at":"1s","action":"restart"}]}`,
			want: "without a preceding kill",
		},
		{
			name: "kill never restarted",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"2s"}],"lifecycle":[{"at":"1s","action":"kill"}]}`,
			want: "left dead",
		},
		{
			name: "double kill",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"3s"}],"lifecycle":[{"at":"1s","action":"kill"},{"at":"2s","action":"kill"}]}`,
			want: "already down",
		},
		{
			name: "lifecycle after run end",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s"}],"lifecycle":[{"at":"5s","action":"checkpoint"}]}`,
			want: "after the run ends",
		},
		{
			name: "unknown lifecycle action",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"2s"}],"lifecycle":[{"at":"1s","action":"pause"}]}`,
			want: "unknown action",
		},
		{
			name: "kill with exactly-once but no durability",
			json: `{"name":"t","workload":{"family":"uniform"},"gates":{"require_exactly_once":true},"phases":[{"name":"p","duration":"3s"}],"lifecycle":[{"at":"1s","action":"kill"},{"at":"2s","action":"restart"}]}`,
			want: "needs daemon.durable",
		},
		{
			name: "negative gate",
			json: `{"name":"t","workload":{"family":"uniform"},"phases":[{"name":"p","duration":"1s"}],"gates":{"max_p99_ms":-1}}`,
			want: "gate max_p99_ms is negative",
		},
		{
			name: "cluster with one node",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"cluster":{"nodes":1},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "cluster.nodes 1 out of range",
		},
		{
			name: "cluster with too many nodes",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"cluster":{"nodes":12},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "cluster.nodes 12 out of range",
		},
		{
			name: "replicas wider than the fleet",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"cluster":{"nodes":3,"replicas":4},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "cluster.replicas 4 out of range",
		},
		{
			name: "cluster without durability",
			json: `{"name":"t","workload":{"family":"uniform"},"cluster":{"nodes":3},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "needs daemon.durable",
		},
		{
			name: "peer_partition without cluster",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true,"proxy":true},"phases":[{"name":"p","duration":"2s"}],"faults":[{"kind":"peer_partition","at":"0s","duration":"1s"}]}`,
			want: "needs a cluster block",
		},
		{
			name: "failover without cluster",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"2s"}],"lifecycle":[{"at":"1s","action":"failover"}]}`,
			want: "needs a cluster block",
		},
		{
			name: "failover mixed with kill",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true,"proxy":true},"cluster":{"nodes":3},"phases":[{"name":"p","duration":"5s"}],"lifecycle":[
				{"at":"1s","action":"failover"},
				{"at":"2s","action":"kill","node":1},{"at":"3s","action":"restart","node":1}]}`,
			want: "cannot be mixed",
		},
		{
			name: "too many failovers for the placement",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"cluster":{"nodes":3,"replicas":2},"phases":[{"name":"p","duration":"5s"}],"lifecycle":[
				{"at":"1s","action":"failover"},{"at":"2s","action":"failover"}]}`,
			want: "exhaust the placement",
		},
		{
			name: "fault node out of range",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true,"proxy":true},"cluster":{"nodes":3},"phases":[{"name":"p","duration":"2s"}],"faults":[{"kind":"partition","at":"0s","duration":"1s","node":3}]}`,
			want: "node 3 out of range",
		},
		{
			name: "lifecycle node out of range",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"cluster":{"nodes":3},"phases":[{"name":"p","duration":"2s"}],"lifecycle":[{"at":"1s","action":"checkpoint","node":5}]}`,
			want: "node 5 out of range",
		},
		{
			name: "convergence gate without cluster",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"1s"}],"gates":{"require_replica_convergence":true}}`,
			want: "needs a cluster block",
		},
		{
			name: "mem_budget without durability",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"mem_budget":1048576},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "needs daemon.durable",
		},
		{
			name: "negative mem_budget",
			json: `{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true,"mem_budget":-1},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "mem_budget is negative",
		},
		{
			name: "negative tenant skew",
			json: `{"name":"t","workload":{"family":"uniform"},"fleet":{"tenants":4,"skew":-1},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "fleet.skew is negative",
		},
		{
			name: "tenants with reference match",
			json: `{"name":"t","workload":{"family":"uniform"},"fleet":{"tenants":4},"phases":[{"name":"p","duration":"1s"}],"gates":{"require_reference_match":true}}`,
			want: "cannot be combined with fleet.tenants",
		},
		{
			name: "tenants with cluster",
			json: `{"name":"t","workload":{"family":"uniform"},"fleet":{"tenants":4},"daemon":{"durable":true},"cluster":{"nodes":3},"phases":[{"name":"p","duration":"1s"}]}`,
			want: "cannot be combined with a cluster block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.json))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestParseSpecValidSchedules exercises accepted shapes near the
// validation edges: adjacent (non-overlapping) same-kind windows,
// different-kind overlap, and a full kill/restart cycle.
func TestParseSpecValidSchedules(t *testing.T) {
	good := []string{
		// Adjacent windows of the same kind touch but do not overlap.
		`{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"10s"}],"faults":[
			{"kind":"fail_syncs","at":"1s","duration":"2s"},
			{"kind":"fail_syncs","at":"3s","duration":"2s"}]}`,
		// Different kinds may overlap freely.
		`{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true,"proxy":true},"phases":[{"name":"p","duration":"10s"}],"faults":[
			{"kind":"io_latency","at":"1s","duration":"5s","delay":"2ms"},
			{"kind":"net_delay","at":"2s","duration":"5s","delay":"1ms"}]}`,
		// Kill, restart, kill, restart.
		`{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true},"phases":[{"name":"p","duration":"10s"}],"lifecycle":[
			{"at":"1s","action":"kill"},{"at":"2s","action":"restart"},
			{"at":"4s","action":"kill"},{"at":"5s","action":"restart"}]}`,
		// Cluster: per-node same-kind windows may overlap across nodes, a
		// failover rides with peer partitions, and the cluster gates apply.
		`{"name":"t","workload":{"family":"uniform"},"daemon":{"durable":true,"proxy":true},"cluster":{"nodes":3},"phases":[{"name":"p","duration":"20s"}],"faults":[
			{"kind":"peer_partition","at":"1s","duration":"3s","node":0},
			{"kind":"peer_partition","at":"2s","duration":"3s","node":1},
			{"kind":"peer_partition","at":"3s","duration":"3s","node":2}],
			"lifecycle":[{"at":"10s","action":"failover"}],
			"gates":{"require_exactly_once":true,"require_replica_convergence":true}}`,
	}
	for i, j := range good {
		if _, err := ParseSpec([]byte(j)); err != nil {
			t.Fatalf("valid spec %d rejected: %v", i, err)
		}
	}
}

// TestParseSpecClusterDefaults pins the cluster block's derived defaults:
// placement width min(3, nodes), shipper heartbeat, and the follower-read
// staleness bound — and that they survive a marshal/parse round trip.
func TestParseSpecClusterDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"t","seed":7,"workload":{"family":"uniform"},"daemon":{"durable":true},
		"cluster":{"nodes":2},"phases":[{"name":"p","duration":"1s"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cluster
	if c.Replicas != 2 {
		t.Fatalf("replicas default = %d, want min(3, nodes)=2", c.Replicas)
	}
	if c.Heartbeat.Duration != 50*time.Millisecond || c.MaxStale.Duration != 2*time.Second {
		t.Fatalf("cluster timing defaults not applied: %+v", c)
	}
	if !s.clustered() || s.nodeCount() != 2 {
		t.Fatalf("clustered()=%v nodeCount()=%d", s.clustered(), s.nodeCount())
	}
	blob, err := marshalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := ParseSpec(blob)
	if err != nil {
		t.Fatalf("round-tripped cluster spec rejected: %v\n%s", err, blob)
	}
	if *rt.Cluster != *c {
		t.Fatalf("cluster block changed across round trip: %+v != %+v", rt.Cluster, c)
	}
}

// FuzzParseSpec asserts the parser never panics and that anything it
// accepts re-validates after a marshal/parse round trip.
func FuzzParseSpec(f *testing.F) {
	f.Add([]byte(minimalSpec))
	f.Add([]byte(`{"name":"x","workload":{"family":"zipf","order":"element"},"daemon":{"durable":true,"proxy":true},
		"phases":[{"name":"a","duration":"2s","rate":1000},{"name":"b","duration":"1s"}],
		"faults":[{"kind":"partition","at":"500ms","duration":"1s"}],
		"lifecycle":[{"at":"2100ms","action":"checkpoint"}],
		"gates":{"require_exactly_once":true,"max_recovery_ms":5000}}`))
	f.Add([]byte(`{"name":"c","workload":{"family":"uniform"},"daemon":{"durable":true,"proxy":true},
		"cluster":{"nodes":3,"replicas":2,"heartbeat":"25ms","max_stale":"1s"},
		"phases":[{"name":"p","duration":"5s"}],
		"faults":[{"kind":"peer_partition","at":"1s","duration":"1s","node":1}],
		"lifecycle":[{"at":"3s","action":"failover"}],
		"gates":{"require_replica_convergence":true}}`))
	f.Add([]byte(`{"name":""}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		// Whatever parses must survive a round trip.
		blob, err := marshalSpec(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		if _, err := ParseSpec(blob); err != nil {
			t.Fatalf("round-tripped spec rejected: %v\n%s", err, blob)
		}
	})
}
