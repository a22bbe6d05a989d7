package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"dswp/internal/testutil"
)

func postRun(t *testing.T, srv *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPRunEndpoint drives the full serving path over real HTTP: a
// request round-trips to a correct digest, error classes map to their
// status codes, and /metrics, /healthz, /workloads respond.
func TestHTTPRunEndpoint(t *testing.T) {
	testutil.VerifyNone(t)
	// Cleanups run in reverse order: idle keep-alive transport goroutines
	// are torn down before the leak check fires.
	t.Cleanup(http.DefaultClient.CloseIdleConnections)
	e := New(Options{Workers: 2, QueueDepth: 16})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	want := seqDigest(t, Request{Workload: "list-traversal", N: 128})
	resp, body := postRun(t, srv, `{"workload":"list-traversal","n":128}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run: %d: %s", resp.StatusCode, body)
	}
	var rr Response
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Digest != want {
		t.Fatalf("digest %s, want %s", rr.Digest, want)
	}
	if !rr.Pipelined || rr.Threads != 2 {
		t.Fatalf("expected a 2-thread pipelined response, got %+v", rr)
	}

	// Error mapping.
	if resp, body = postRun(t, srv, `{"workload":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown workload: %d: %s", resp.StatusCode, body)
	}
	if resp, body = postRun(t, srv, `{"workload":"wc","bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d: %s", resp.StatusCode, body)
	}
	// A misspelt mode is refused before admission: nothing compiles.
	compiles := e.Metrics().Snapshot().Compiles
	if resp, body = postRun(t, srv, `{"workload":"wc","mode":"supervsied"}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), `"bad-request"`) || !strings.Contains(string(body), "supervsied") {
		t.Fatalf("unknown mode: %d: %s", resp.StatusCode, body)
	}
	if got := e.Metrics().Snapshot().Compiles; got != compiles {
		t.Fatalf("an unknown mode compiled: compiles %d -> %d", compiles, got)
	}
	// Queue geometry is the engine's (dswpd -queue, -queue-cap), not a
	// request's.
	if resp, body = postRun(t, srv, `{"workload":"wc","queue_cap":64}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(string(body), "unknown field") {
		t.Fatalf("queue_cap field: %d: %s", resp.StatusCode, body)
	}
	if resp, _ := http.Get(srv.URL + "/run"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Observability endpoints.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap EngineSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Completed < 1 || snap.Compiles < 1 {
		t.Fatalf("metrics snapshot missing served traffic: %+v", snap)
	}
	if snap.LatencyTotalUS.Count < 1 || snap.LatencyTotalUS.P99 <= 0 {
		t.Fatalf("latency histogram empty: %+v", snap.LatencyTotalUS)
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", hresp.StatusCode, h)
	}

	wresp, err := http.Get(srv.URL + "/workloads")
	if err != nil {
		t.Fatal(err)
	}
	var wl map[string][]WorkloadInfo
	if err := json.NewDecoder(wresp.Body).Decode(&wl); err != nil {
		t.Fatal(err)
	}
	wresp.Body.Close()
	if len(wl["workloads"]) < 12 {
		t.Fatalf("workloads list too short: %v", wl)
	}
	// The workload this test served must report its compile outcome.
	served := false
	for _, wi := range wl["workloads"] {
		if wi.Name == "list-traversal" {
			served = wi.Compiled && wi.Pipelined != nil && *wi.Pipelined &&
				wi.Checkpointable != nil && *wi.Checkpointable
		}
	}
	if !served {
		t.Fatalf("served workload missing compile info: %+v", wl["workloads"])
	}
}

// TestHTTPSheddingReturns429 saturates a tiny engine over HTTP and
// requires at least one typed 429 with Retry-After, with every other
// outcome a clean 200.
func TestHTTPSheddingReturns429(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	retryAfter := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postRun(t, srv, `{"workload":"list-traversal","n":400}`)
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	var ok, shed int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if retryAfter[i] == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("ok=%d shed=%d, want both > 0", ok, shed)
	}
}

// TestHTTPHealthzDraining checks the health endpoint flips to 503 once
// shutdown begins.
func TestHTTPHealthzDraining(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 1})
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()
	shutdown(t, e)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	resp2, body := postRun(t, srv, `{"workload":"wc"}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run while draining: %d: %s", resp2.StatusCode, body)
	}
}
