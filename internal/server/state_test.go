package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postStateSave(t *testing.T, srv *Server) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/api/state/save", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec
}

// POST /api/state/save answers 503 until the daemon injects a saver, then
// delegates to it: 200 on success, 500 when the saver fails.
func TestStateSaveEndpoint(t *testing.T) {
	srv, _ := testServer(t)

	if rec := postStateSave(t, srv); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unconfigured save: status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodGet, "/api/state/save", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET save: status %d, want 405", rec.Code)
	}

	calls := 0
	srv.SetStateSaver(func() error { calls++; return nil })
	if rec := postStateSave(t, srv); rec.Code != http.StatusOK {
		t.Fatalf("save: status %d: %s", rec.Code, rec.Body.String())
	} else if !strings.Contains(rec.Body.String(), "entries") {
		t.Fatalf("save response lacks entry count: %s", rec.Body.String())
	}
	if calls != 1 {
		t.Fatalf("saver ran %d times, want 1", calls)
	}

	srv.SetStateSaver(func() error { return errors.New("disk full") })
	rec = postStateSave(t, srv)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failing save: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "disk full") {
		t.Fatalf("failing save hides the cause: %s", rec.Body.String())
	}
}
