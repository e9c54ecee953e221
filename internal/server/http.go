package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"sort"
	"time"

	"streamcover/internal/wire"
)

// sessionInfo is one row of the /sessions listing.
type sessionInfo struct {
	Name       string  `json:"name"`
	M          int     `json:"m"`
	N          int     `json:"n"`
	K          int     `json:"k"`
	Alpha      float64 `json:"alpha"`
	Seed       int64   `json:"seed"`
	Edges      int64   `json:"edges"`
	Batches    int64   `json:"batches"`
	Queries    int64   `json:"queries"`
	QueueDepth int     `json:"queue_depths"` // apply-queue occupancy

	// Residency (oversubscription). Hydrated sessions have a live
	// estimator; evicted ones are parked at their checkpoints until the
	// next op.
	Hydrated      bool    `json:"hydrated"`
	ResidentBytes int64   `json:"resident_bytes"`
	LastAccessAge float64 `json:"last_access_age_seconds,omitempty"`
	Rehydrations  int64   `json:"rehydrations"`
}

// queryResponse is the JSON shape of /query.
type queryResponse struct {
	Session    string   `json:"session"`
	Coverage   float64  `json:"coverage"`
	Feasible   bool     `json:"feasible"`
	SetIDs     []uint32 `json:"set_ids"`
	SpaceWords int      `json:"space_words"`
	Edges      int      `json:"edges"`
}

// httpHandler builds the live query/observability endpoint: /query runs
// the same Result-on-the-apply-queue path as the TCP protocol, /sessions inventories
// the live sessions, /metrics dumps the counters, and /debug/pprof/*
// exposes the standard Go profiler so ingest hot paths can be profiled
// in production (mounted explicitly — the server uses its own mux, so
// net/http/pprof's DefaultServeMux registration would not be reachable).
func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("session")
		if name == "" {
			http.Error(w, "missing ?session=", http.StatusBadRequest)
			return
		}
		res, err := s.querySession(name)
		if err != nil {
			http.Error(w, err.Error(), errorStatus(err, http.StatusNotFound))
			return
		}
		writeJSON(w, queryResponse{
			Session:    name,
			Coverage:   res.Coverage,
			Feasible:   res.Feasible,
			SetIDs:     res.SetIDs,
			SpaceWords: res.SpaceWords,
			Edges:      res.Edges,
		})
	})
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, r *http.Request) {
		sessions := s.listSessions()
		infos := make([]sessionInfo, 0, len(sessions))
		for _, sess := range sessions {
			hydrated, queued, bytes, last, rehyd := sess.residency()
			info := sessionInfo{
				Name:          sess.name,
				M:             sess.m,
				N:             sess.n,
				K:             sess.k,
				Alpha:         sess.alpha,
				Seed:          sess.seed,
				Edges:         sess.edges.Load(),
				Batches:       sess.batches.Load(),
				Queries:       sess.queries.Load(),
				QueueDepth:    queued,
				Hydrated:      hydrated,
				ResidentBytes: bytes,
				Rehydrations:  rehyd,
			}
			if last > 0 {
				info.LastAccessAge = time.Since(time.Unix(0, last)).Seconds()
			}
			infos = append(infos, info)
		}
		sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
		writeJSON(w, infos)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		counters := s.metrics.snapshot()
		queues := map[string]int{}
		durability := map[string]durabilityInfo{}
		var hydrated, evicted, residentBytes int64
		for _, sess := range s.listSessions() {
			resident, queued, bytes, _, _ := sess.residency()
			queues[sess.name] = queued
			if resident {
				hydrated++
				residentBytes += bytes
			} else {
				evicted++
			}
			if d := sess.dur; d != nil {
				ckptPos := d.ckptPos.Load()
				durability[sess.name] = durabilityInfo{
					WALLastPos:    d.wal.LastPos(),
					CheckpointPos: ckptPos,
					WALDepth:      d.wal.Depth(ckptPos + 1),
					CheckpointAge: time.Since(time.Unix(0, d.lastCkptNanos.Load())).Seconds(),
				}
			}
		}
		// Residency gauges are computed live from the session map rather
		// than counter-maintained across every close/evict path.
		counters["resident_sessions"] = hydrated
		counters["evicted_sessions"] = evicted
		counters["resident_bytes"] = residentBytes
		counters["mem_budget_bytes"] = s.cfg.MemBudget
		out := map[string]any{"counters": counters, "queue_depths": queues}
		if len(durability) > 0 {
			out["durability"] = durability
		}
		// Raw power-of-two latency buckets, for collectors that want to
		// merge or re-quantile across scrapes; the counters above already
		// carry the derived p50/p95/p99.
		hists := map[string]histInfo{}
		if up, ct := s.metrics.IngestHist.Buckets(); len(up) > 0 {
			hists["ingest_batch_nanos"] = histInfo{Uppers: up, Counts: ct}
		}
		if up, ct := s.metrics.QueryHist.Buckets(); len(up) > 0 {
			hists["query_nanos"] = histInfo{Uppers: up, Counts: ct}
		}
		if up, ct := s.metrics.RehydrateHist.Buckets(); len(up) > 0 {
			hists["rehydration_nanos"] = histInfo{Uppers: up, Counts: ct}
		}
		if len(hists) > 0 {
			out["latency_buckets"] = hists
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		type sessionHealth struct {
			Status string `json:"status"`
			Error  string `json:"error,omitempty"`
		}
		sessions := map[string]sessionHealth{}
		for _, sess := range s.listSessions() {
			st, detail := sess.health()
			sessions[sess.name] = sessionHealth{Status: st, Error: detail}
		}
		// Server-wide status: read-only dominates (every ingest is being
		// rejected), then degraded (some session's durability is broken),
		// then ok. Non-ok answers 503 so load balancers and probes that
		// only look at the status code drain the instance.
		status := "ok"
		switch {
		case s.metrics.DiskFullSessions.Load() > 0:
			status = "read-only"
		case s.metrics.DegradedSessions.Load() > 0:
			status = "degraded"
		}
		if status != "ok" {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{"status": status, "sessions": sessions})
			return
		}
		writeJSON(w, map[string]any{"status": status, "sessions": sessions})
	})
	mux.HandleFunc("/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		if err := s.CheckpointAll(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, map[string]any{"checkpointed": true})
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		info := clusterInfo{Node: s.cfg.NodeID, Sessions: map[string]clusterSessionInfo{}}
		if s.ring != nil {
			info.Peers = s.ring.Members()
		}
		for _, sess := range s.listSessions() {
			name := sess.name
			ri, err := s.SessionRole(name)
			if err != nil {
				continue // closed between the listing and here
			}
			row := clusterSessionInfo{
				Role:    "leader",
				Leader:  ri.LeaderAddr,
				Applied: ri.Applied,
			}
			if ri.Role == wire.RoleFollower {
				row.Role = "follower"
				row.StalenessSeconds = time.Duration(ri.StalenessNanos).Seconds()
			}
			info.Sessions[name] = row
		}
		writeJSON(w, info)
	})
	mux.HandleFunc("/digest", func(w http.ResponseWriter, r *http.Request) {
		name := r.URL.Query().Get("session")
		if name == "" {
			http.Error(w, "missing ?session=", http.StatusBadRequest)
			return
		}
		digest, err := s.SessionDigest(name)
		if err != nil {
			http.Error(w, err.Error(), errorStatus(err, http.StatusNotFound))
			return
		}
		writeJSON(w, map[string]string{"session": name, "digest": digest})
	})
	mux.HandleFunc("/fence", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name := r.URL.Query().Get("session")
		if name == "" {
			http.Error(w, "missing ?session=", http.StatusBadRequest)
			return
		}
		if err := s.Fence(name); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]any{"session": name, "fenced": true})
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name := r.URL.Query().Get("session")
		if name == "" {
			http.Error(w, "missing ?session=", http.StatusBadRequest)
			return
		}
		if err := s.Promote(name); err != nil {
			http.Error(w, err.Error(), errorStatus(err, http.StatusConflict))
			return
		}
		writeJSON(w, map[string]any{"session": name, "promoted": true, "leader": s.cfg.NodeID})
	})
	mux.HandleFunc("/leader", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		name, leader := r.URL.Query().Get("session"), r.URL.Query().Get("leader")
		if name == "" || leader == "" {
			http.Error(w, "missing ?session= or ?leader=", http.StatusBadRequest)
			return
		}
		s.SetSessionLeader(name, leader)
		writeJSON(w, map[string]any{"session": name, "leader": leader})
	})
	return mux
}

// clusterInfo is the /cluster payload: this node's identity and its view
// of every local session's role and replication progress.
type clusterInfo struct {
	Node     string                        `json:"node,omitempty"`
	Peers    []string                      `json:"peers,omitempty"`
	Sessions map[string]clusterSessionInfo `json:"sessions"`
}

type clusterSessionInfo struct {
	Role             string  `json:"role"`
	Leader           string  `json:"leader"`
	Applied          uint64  `json:"applied"`
	StalenessSeconds float64 `json:"staleness_seconds,omitempty"`
}

// histInfo is one latency histogram in the /metrics payload: parallel
// bucket-upper-bound and count slices, non-empty buckets only.
type histInfo struct {
	Uppers []int64 `json:"uppers"`
	Counts []int64 `json:"counts"`
}

// durabilityInfo is the per-session durability row in /metrics: how far
// the WAL has grown past the last checkpoint, and how stale that
// checkpoint is.
type durabilityInfo struct {
	WALLastPos    uint64  `json:"wal_last_pos"`
	CheckpointPos uint64  `json:"checkpoint_pos"`
	WALDepth      uint64  `json:"wal_depth"`
	CheckpointAge float64 `json:"checkpoint_age_seconds"`
}

// errorStatus maps a failure to its HTTP status: 503 for the transient
// rejections TCP answers with TErrRetry (retry later), otherwise
// fallback — 404 for a lookup or read, an unknown session included, and
// 409 for a promotion.
func errorStatus(err error, fallback int) int {
	if transient(err) {
		return http.StatusServiceUnavailable
	}
	return fallback
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
