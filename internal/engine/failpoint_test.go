package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dswp/internal/ckptstore"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	rt "dswp/internal/runtime"
	"dswp/internal/telemetry"
)

// baselineDigest serves one clean request and returns its digest — the
// ground truth injected faults must never change.
func baselineDigest(t *testing.T, req Request) string {
	t.Helper()
	e := New(Options{Workers: 2})
	defer e.Shutdown(context.Background())
	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return resp.Digest
}

func TestFailpointAdmission(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	if err := failpoint.Enable("engine/admission/enqueue", "error(x):once"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 64})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("armed admission: got %v", err)
	}
	// One-shot burned: the next request is served normally.
	if _, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 64}); err != nil {
		t.Fatalf("after one-shot: %v", err)
	}
	s := e.Metrics().Snapshot()
	if s.Failpoints["engine/admission/enqueue"] != 1 {
		t.Fatalf("snapshot failpoints = %v", s.Failpoints)
	}
}

func TestFailpointCompile(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	if err := failpoint.Enable("engine/cache/compile", "error(x):once"); err != nil {
		t.Fatal(err)
	}
	req := Request{Workload: "list-traversal", N: 64}
	_, err := e.Run(context.Background(), req)
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("armed compile: got %v", err)
	}
	// The failed compile must not be cached: the next request compiles
	// cleanly and serves.
	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("compile after injected failure: %v", err)
	}
	if resp.Digest != baselineDigest(t, req) {
		t.Fatal("digest drifted after injected compile failure")
	}
}

func TestFailpointPoolAcquireForcesColdPath(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	req := Request{Workload: "list-traversal", N: 64}
	if _, err := e.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// With the site armed every run takes the cold path: correct results,
	// never a warm hit.
	if err := failpoint.Enable("engine/pool/acquire", "error(x):every(1)"); err != nil {
		t.Fatal(err)
	}
	hitsBefore := e.Metrics().Snapshot().PoolHits
	want := baselineDigest(t, req)
	for i := 0; i < 3; i++ {
		resp, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("armed run %d: %v", i, err)
		}
		if resp.Warm {
			t.Fatalf("armed run %d reported a warm instance", i)
		}
		if resp.Digest != want {
			t.Fatalf("armed run %d digest %s != %s", i, resp.Digest, want)
		}
	}
	if hits := e.Metrics().Snapshot().PoolHits; hits != hitsBefore {
		t.Fatalf("pool hits moved under the armed site (%d -> %d)", hitsBefore, hits)
	}
}

// TestFailedResumeIsNotRetried: a failed resume is not retried. The injected
// stage panic sends the request to the supervisor's resume, which the
// armed site fails; the request ends in that injected error, the breaker
// counts the pipelined failure, and the request's store key is deleted
// like any other terminal outcome's.
func TestFailedResumeIsNotRetried(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	store := ckptstore.NewMem()
	e := New(Options{Workers: 1, Store: store, CheckpointEvery: 4})
	defer e.Shutdown(context.Background())
	if err := failpoint.Enable("supervisor/resume/start", "error(x):every(1)"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Run(context.Background(),
		Request{Workload: "list-traversal", N: 1024, InjectPanic: 400})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("got %v, want the injected resume failure", err)
	}
	if n := failpoint.Triggers()["supervisor/resume/start"]; n != 1 {
		t.Fatalf("resume site fired %d times, want exactly 1", n)
	}
	s := e.Metrics().Snapshot()
	if s.DurableCommits == 0 || s.Resumes != 0 {
		t.Fatalf("durable_commits=%d resumes=%d, want commits and no resume", s.DurableCommits, s.Resumes)
	}
	if bi := e.breaker.info("list-traversal"); bi == nil || bi.ConsecutiveFailures != 1 {
		t.Fatalf("breaker %+v, want one recorded failure", bi)
	}
	if keys, err := store.Keys(); err != nil || len(keys) != 0 {
		t.Fatalf("store keys %v (err %v), want the request's key deleted", keys, err)
	}
}

func TestFailpointCheckpointCommit(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1, CheckpointEvery: 16})
	defer e.Shutdown(context.Background())
	req := Request{Workload: "list-traversal", N: 256}
	want := baselineDigest(t, req)
	if err := failpoint.Enable("supervisor/ckpt/commit", "error(EIO):every(1)"); err != nil {
		t.Fatal(err)
	}
	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("run with failing commits: %v", err)
	}
	if resp.DurableCheckpoints != 0 {
		t.Fatalf("%d durable commits landed through the armed site", resp.DurableCheckpoints)
	}
	if resp.Digest != want {
		t.Fatal("failing durable commits changed the result")
	}
	s := e.Metrics().Snapshot()
	if s.StoreErrors == 0 {
		t.Fatal("injected commit failures not counted as store errors")
	}
	if s.Failpoints["supervisor/ckpt/commit"] != s.StoreErrors {
		t.Fatalf("triggers %v vs store errors %d", s.Failpoints, s.StoreErrors)
	}
}

func TestFailpointHTTPReadBody(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	if err := failpoint.Enable("engine/http/read-body", "error(x):once"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"list-traversal","n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed read-body: status %d", resp.StatusCode)
	}
	// One-shot burned: the endpoint serves again.
	resp, err = http.Post(srv.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"list-traversal","n":64}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after one-shot: status %d", resp.StatusCode)
	}
}

func TestFailpointHTTPWriteResponse(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	if err := failpoint.Enable("engine/http/write-response", "error(x):once"); err != nil {
		t.Fatal(err)
	}
	// The server aborts the connection instead of writing the response:
	// the client sees a transport error (EOF/reset), never a truncated
	// 200. The run itself completed server-side.
	resp, err := http.Post(srv.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"list-traversal","n":64}`))
	if err == nil {
		resp.Body.Close()
		t.Fatalf("armed write-response returned a response: %d", resp.StatusCode)
	}
	s := e.Metrics().Snapshot()
	if s.Completed != 1 {
		t.Fatalf("completed = %d — the abort should land after the run", s.Completed)
	}
	if s.InFlight != 0 {
		t.Fatalf("in-flight = %d after aborted response", s.InFlight)
	}
}

// TestDegradedSubsystems pins the /healthz degradation surface: a
// durability-degraded checkpoint store and an open breaker both appear in
// the degraded list, the status reads "degraded", and the process stays
// live (200) — degradation is a warning, not death.
func TestDegradedSubsystems(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	store, err := ckptstore.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Degrade one key directly through an injected ENOSPC.
	if err := failpoint.Enable("ckptstore/file/write", "error(ENOSPC):once"); err != nil {
		t.Fatal(err)
	}
	mem := interp.NewMemory(8)
	entry, err := ckptstore.NewEntry("stuck", nil,
		rt.Checkpoint{Iter: 1, Regs: []int64{0}, Mem: mem}, interp.NewMemory(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(entry); !errors.Is(err, ckptstore.ErrDurabilityLost) {
		t.Fatalf("degrade setup: %v", err)
	}

	e := New(Options{Workers: 1, Store: store, BreakerThreshold: 1})
	defer e.Shutdown(context.Background())
	if got := e.DegradedSubsystems(); len(got) != 1 || got[0] != "checkpoint-store" {
		t.Fatalf("degraded = %v, want [checkpoint-store]", got)
	}
	// Trip the breaker with one injected stage panic (threshold 1),
	// opening it for the default 5s cooldown. The request itself resumes.
	if resp, err := e.Run(context.Background(),
		Request{Workload: "list-traversal", N: 128, InjectPanic: 50}); err != nil || !resp.Resumed {
		t.Fatalf("injected panic: resp=%+v err=%v, want a resumed request", resp, err)
	}
	want := []string{"breaker:list-traversal", "checkpoint-store"}
	got := e.DegradedSubsystems()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("degraded = %v, want %v", got, want)
	}

	rec := httptest.NewRecorder()
	NewMux(e).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d — degraded must stay live", rec.Code)
	}
	var h health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Degraded) != 2 {
		t.Fatalf("healthz body: status=%q degraded=%v", h.Status, h.Degraded)
	}
}

// TestFailpointPromExposition pins the observability satellite: triggered
// sites appear in both the JSON snapshot and the Prometheus text with
// per-site labels, and the exposition stays lint-clean.
func TestFailpointPromExposition(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	if err := failpoint.Enable("engine/admission/enqueue", "error(x):once"); err != nil {
		t.Fatal(err)
	}
	_, _ = e.Run(context.Background(), Request{Workload: "list-traversal", N: 64})
	text := promText(e.Metrics().Snapshot())
	if !strings.Contains(text, `dswp_failpoint_triggers_total{site="engine/admission/enqueue"} 1`) {
		t.Fatalf("failpoint series missing from exposition:\n%s", text)
	}
	if errs := telemetry.LintProm(text); len(errs) > 0 {
		t.Fatalf("exposition lint: %v", errs)
	}
}
