package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"streamcover/internal/wire"
)

// TestHTTPTransientRejectionIs503 pins that /query and /digest answer the
// rejections TCP sends as TErrRetry — a session mid-promotion, a server
// shutting down — with 503, not with the 404 of a session that does not
// exist.
func TestHTTPTransientRejectionIs503(t *testing.T) {
	srv := New(Config{})
	if err := srv.createSession(wire.Create{Name: "web", M: 10, N: 100, K: 2, Alpha: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	h := srv.httpHandler()
	status := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	for _, path := range []string{"/query?session=web", "/digest?session=web"} {
		if got := status(path); got != http.StatusOK {
			t.Fatalf("GET %s on a live session: %d", path, got)
		}
	}

	srv.mu.Lock()
	srv.promoting["web"] = true
	srv.mu.Unlock()
	_, err := srv.session("web")
	if typ, _ := ackFrame(err); typ != wire.TErrRetry {
		t.Fatalf("mid-promotion lookup acks 0x%02x, want TErrRetry", typ)
	}
	for _, path := range []string{"/query?session=web", "/digest?session=web"} {
		if got := status(path); got != http.StatusServiceUnavailable {
			t.Errorf("GET %s mid-promotion: %d, want 503", path, got)
		}
	}
	for _, path := range []string{"/query?session=nope", "/digest?session=nope"} {
		if got := status(path); got != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, got)
		}
	}

	srv.mu.Lock()
	delete(srv.promoting, "web")
	srv.mu.Unlock()
	srv.Abort()
	if got := status("/query?session=web"); got != http.StatusServiceUnavailable {
		t.Errorf("GET /query on a shut-down server: %d, want 503", got)
	}
}

// TestCheckpointRequiresPost pins that /checkpoint, which writes every
// session's checkpoint and may evict, runs only on POST: a GET from a
// crawler or link prefetcher is refused with 405 and writes nothing.
func TestCheckpointRequiresPost(t *testing.T) {
	srv := New(Config{DataDir: t.TempDir(), WALNoSync: true, CheckpointEvery: -1})
	defer srv.Abort()
	if err := srv.createSession(wire.Create{Name: "web", M: 10, N: 100, K: 2, Alpha: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	h := srv.httpHandler()
	serve := func(method string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/checkpoint", nil))
		return rec.Code
	}
	before := srv.Metrics().Checkpoints.Load()
	if got := serve(http.MethodGet); got != http.StatusMethodNotAllowed {
		t.Errorf("GET /checkpoint: %d, want 405", got)
	}
	if got := srv.Metrics().Checkpoints.Load(); got != before {
		t.Fatalf("GET /checkpoint wrote %d checkpoints, want none", got-before)
	}
	if got := serve(http.MethodPost); got != http.StatusOK {
		t.Fatalf("POST /checkpoint: %d, want 200", got)
	}
	if got := srv.Metrics().Checkpoints.Load(); got != before+1 {
		t.Errorf("POST /checkpoint wrote %d checkpoints, want 1", got-before)
	}
}
