package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dswp/internal/engine"
)

// serve starts an engine behind the dswpd mux, optionally wrapped, and
// tears both down when the test ends.
func serve(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	e := engine.New(engine.Options{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	var h http.Handler = engine.NewMux(e)
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
}

// TestSmokeAndClosedLoop runs the server-smoke invocation in process:
// every endpoint once, then a short closed loop with digests checked.
func TestSmokeAndClosedLoop(t *testing.T) {
	addr := serve(t, nil)
	var out, errs bytes.Buffer
	err := run([]string{"-addr", addr, "-smoke", "-clients", "2", "-duration", "200ms", "-json"}, &out, &errs)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errs.String())
	}
	if !strings.Contains(errs.String(), "smoke telemetry: prom lints clean") {
		t.Errorf("smoke pass did not reach the telemetry gate:\n%s", errs.String())
	}
	var got struct {
		Schema string `json:"schema"`
		Result result `json:"result"`
	}
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("stdout is not one JSON object: %v\n%s", err, out.String())
	}
	if got.Schema != "dswp-load-http/2" || got.Result.Requests == 0 || got.Result.Errors != 0 {
		t.Fatalf("summary %+v", got)
	}
}

// TestClosedLoopCatchesCorruptDigest corrupts one /run response after
// the canaries have pinned the digests; the run must fail and name it.
func TestClosedLoopCatchesCorruptDigest(t *testing.T) {
	var runs atomic.Int64
	addr := serve(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// Requests 1 and 2 are the canaries for the two-entry mix.
			if r.URL.Path != "/run" || runs.Add(1) != 3 {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			var resp map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("decode /run: %v", err)
			}
			resp["digest"] = "corrupt"
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(rec.Code)
			json.NewEncoder(w).Encode(resp)
		})
	})
	var out, errs bytes.Buffer
	err := run([]string{"-addr", addr, "-clients", "1", "-duration", "300ms"}, &out, &errs)
	if err == nil || !strings.Contains(err.Error(), "1 requests failed") {
		t.Fatalf("run = %v, want one failed request\nstdout:\n%s", err, out.String())
	}
	if !strings.Contains(errs.String(), "digest corrupt, want") || !strings.Contains(out.String(), "digest-mismatch") {
		t.Fatalf("corruption not reported\nstdout:\n%s\nstderr:\n%s", out.String(), errs.String())
	}
}

func TestAddrRequired(t *testing.T) {
	var out, errs bytes.Buffer
	if err := run(nil, &out, &errs); err == nil || !strings.Contains(err.Error(), "-addr is required") {
		t.Fatalf("run without -addr = %v", err)
	}
}
