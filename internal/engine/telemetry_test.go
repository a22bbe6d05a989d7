package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"dswp/internal/obs"
	"dswp/internal/telemetry"
	"dswp/internal/testutil"
)

func alwaysSample() telemetry.TraceOptions {
	return telemetry.TraceOptions{SampleRate: 1, SlowThreshold: -1}
}

// TestTracedRequestRetrievable is the PR's acceptance path: serve a
// request, read its id off the X-Request-ID header and the response
// body, then fetch the full span tree from /debug/requests/{id} —
// admission, cache, pool-acquire, and run spans with the bridged
// pipeline stages underneath.
func TestTracedRequestRetrievable(t *testing.T) {
	e := New(Options{Workers: 2, QueueDepth: 16, Telemetry: alwaysSample()})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/run", "application/json",
		strings.NewReader(`{"workload":"list-traversal","n":128}`))
	if err != nil {
		t.Fatal(err)
	}
	var rr Response
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Request-ID")
	if id == "" || rr.RequestID != id {
		t.Fatalf("X-Request-ID %q vs body request_id %q", id, rr.RequestID)
	}
	if !rr.Pipelined {
		t.Fatalf("expected a pipelined run, got %+v", rr)
	}

	dresp, err := http.Get(srv.URL + "/debug/requests/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var tr telemetry.RequestTrace
	if err := json.NewDecoder(dresp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || tr.ID != id {
		t.Fatalf("GET /debug/requests/%s: %d, trace id %q", id, dresp.StatusCode, tr.ID)
	}
	phases := map[string]*telemetry.Span{}
	for _, c := range tr.Root.Children {
		phases[c.Name] = c
	}
	for _, want := range []string{"admission", "cache", "run"} {
		if phases[want] == nil {
			t.Fatalf("trace missing %q phase; has %v", want, spanNames(tr.Root.Children))
		}
	}
	// The supervised pipelined run bridges per-stage spans under "run".
	stages := 0
	for _, c := range phases["run"].Children {
		if strings.HasPrefix(c.Name, "stage ") {
			stages++
		}
	}
	if stages < 2 {
		t.Fatalf("run span has %d bridged stage spans, want >= 2: %v",
			stages, spanNames(phases["run"].Children))
	}
	// pool-acquire appears inside the run phase (warm pools on by default).
	if findChild(phases["run"], "pool-acquire") == nil && phases["pool-acquire"] == nil {
		t.Fatalf("trace missing pool-acquire span: %v", spanNames(phases["run"].Children))
	}

	// Text and Chrome exports serve the same trace.
	for _, c := range []struct{ format, contentType, want string }{
		{"text", "text/plain", "admission"},
		{"chrome", "application/json", "traceEvents"},
	} {
		fr, err := http.Get(srv.URL + "/debug/requests/" + id + "?format=" + c.format)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(fr.Body)
		fr.Body.Close()
		if !strings.HasPrefix(fr.Header.Get("Content-Type"), c.contentType) ||
			!strings.Contains(buf.String(), c.want) {
			t.Fatalf("?format=%s: Content-Type %q, body %q", c.format,
				fr.Header.Get("Content-Type"), buf.String())
		}
	}

	// Unknown ids 404 with the JSON error shape.
	nf, err := http.Get(srv.URL + "/debug/requests/r99999999")
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	json.NewDecoder(nf.Body).Decode(&eb)
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound || eb.Error == "" {
		t.Fatalf("missing trace: %d %+v", nf.StatusCode, eb)
	}
}

// TestResumedRequestTrace: a supervised request whose attempt panics and
// resumes sequentially keeps a stage 0 span in the runtime's clock. The
// resume adds its marker and nothing else: no per-value events past the
// CoarseOnly bridge, no ring overflow, and no end stamped in retired
// instructions.
func TestResumedRequestTrace(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4, Telemetry: alwaysSample()})
	defer shutdown(t, e)

	resp, id, err := e.RunTraced(context.Background(),
		Request{Workload: "list-traversal", N: 20000, InjectPanic: 400})
	if err != nil || !resp.Resumed {
		t.Fatalf("RunTraced: err %v, resumed %v", err, resp.Resumed)
	}
	tr := e.Tracer().Get(id)
	if tr == nil {
		t.Fatal("resumed request's trace not kept")
	}
	st := findChild(findSpan(tr.Root, "run"), "stage 0")
	if st == nil {
		t.Fatalf("no stage 0 span under run")
	}
	for _, a := range st.Attrs {
		switch a.Key {
		case "events_lost", "branches", "iterations":
			t.Errorf("stage 0 carries %s = %v", a.Key, a.Value)
		}
	}
	resume := findChild(st, "sequential-resume")
	if resume == nil {
		t.Fatalf("stage 0 has no sequential-resume child: %v", spanNames(st.Children))
	}
	if st.EndNS < resume.StartNS {
		t.Fatalf("stage 0 ends at %d ns, before its resume marker at %d ns", st.EndNS, resume.StartNS)
	}
}

// findSpan returns the first span named name in s's subtree.
func findSpan(s *telemetry.Span, name string) *telemetry.Span {
	if s == nil || s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

func spanNames(spans []*telemetry.Span) []string {
	var out []string
	for _, s := range spans {
		out = append(out, s.Name)
	}
	return out
}

func findChild(s *telemetry.Span, name string) *telemetry.Span {
	if s == nil {
		return nil
	}
	for _, c := range s.Children {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// TestErroredRequestAlwaysKept: with random sampling disabled, an
// errored request must still be retained and carry its error class —
// the tail-sampling rule the debug surface exists for.
func TestErroredRequestAlwaysKept(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4,
		Telemetry: telemetry.TraceOptions{SampleRate: -1, SlowThreshold: -1}})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	// A successful request is dropped (nothing samples it)...
	okResp, _ := postRun(t, srv, `{"workload":"list-traversal","n":32}`)
	okID := okResp.Header.Get("X-Request-ID")
	if okID == "" {
		t.Fatal("no X-Request-ID on success")
	}
	// ...while an unknown workload's 400 is kept with its class.
	errResp, _ := postRun(t, srv, `{"workload":"nope"}`)
	errID := errResp.Header.Get("X-Request-ID")
	if errResp.StatusCode != http.StatusBadRequest || errID == "" {
		t.Fatalf("unknown workload: %d id=%q", errResp.StatusCode, errID)
	}

	if gone, err := http.Get(srv.URL + "/debug/requests/" + okID); err != nil {
		t.Fatal(err)
	} else {
		gone.Body.Close()
		if gone.StatusCode != http.StatusNotFound {
			t.Fatalf("unsampled success retained: %d", gone.StatusCode)
		}
	}
	kept, err := http.Get(srv.URL + "/debug/requests/" + errID)
	if err != nil {
		t.Fatal(err)
	}
	var tr telemetry.RequestTrace
	json.NewDecoder(kept.Body).Decode(&tr)
	kept.Body.Close()
	if kept.StatusCode != http.StatusOK || tr.Kept != "error" || tr.Class != "bad-request" {
		t.Fatalf("errored trace: %d kept=%q class=%q", kept.StatusCode, tr.Kept, tr.Class)
	}
}

// TestSlowRequestKept: a request above the latency threshold is retained
// with kept="slow" and is listed on /debug/requests.
func TestSlowRequestKept(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4,
		Telemetry: telemetry.TraceOptions{SampleRate: -1, SlowThreshold: time.Nanosecond}})
	defer shutdown(t, e)

	resp, id, err := e.RunTraced(context.Background(), Request{Workload: "list-traversal", N: 64})
	if err != nil || id == "" {
		t.Fatalf("RunTraced: id=%q err=%v", id, err)
	}
	if resp.RequestID != id {
		t.Fatalf("response request_id %q, want %q", resp.RequestID, id)
	}
	tr := e.Tracer().Get(id)
	if tr == nil || tr.Kept != "slow" {
		t.Fatalf("slow trace not kept: %+v", tr)
	}
	list := e.Tracer().List()
	if len(list) != 1 || list[0].ID != id || list[0].Spans < 3 {
		t.Fatalf("List = %+v", list)
	}
}

// TestTraceRingBoundedUnderLoad pins the memory cap end to end: far more
// always-sampled requests than Capacity leave exactly Capacity retained.
func TestTraceRingBoundedUnderLoad(t *testing.T) {
	testutil.VerifyNone(t)
	opts := alwaysSample()
	opts.Capacity = 8
	e := New(Options{Workers: 2, QueueDepth: 32, Telemetry: opts})
	defer shutdown(t, e)

	for i := 0; i < 40; i++ {
		if _, _, err := e.RunTraced(context.Background(), Request{Workload: "list-traversal", N: 16}); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Tracer().Stats()
	if s.Retained != 8 || s.Capacity != 8 {
		t.Fatalf("retained %d of cap %d, want exactly 8", s.Retained, s.Capacity)
	}
	if s.Started != 40 || s.KeptSampled != 40 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestMetricsNegotiation: /metrics stays JSON by default (same shape as
// the engine snapshot) and serves linted Prometheus text under Accept
// negotiation or ?format=prometheus; ?format=json wins over Accept.
func TestMetricsNegotiation(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4, Telemetry: alwaysSample()})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()
	postRun(t, srv, `{"workload":"list-traversal","n":32}`)

	// Default: JSON, byte-identical to the snapshot encoder's output shape.
	jr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := jr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default /metrics Content-Type = %q", ct)
	}
	var snap EngineSnapshot
	if err := json.NewDecoder(jr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	jr.Body.Close()
	if snap.Completed < 1 {
		t.Fatalf("JSON snapshot missing traffic: %+v", snap)
	}

	// Prometheus via Accept and via ?format; both must lint clean.
	for _, u := range []string{srv.URL + "/metrics?format=prometheus", srv.URL + "/metrics"} {
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		if !strings.Contains(u, "format=") {
			req.Header.Set("Accept", "text/plain")
		}
		pr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(pr.Body)
		pr.Body.Close()
		if ct := pr.Header.Get("Content-Type"); ct != telemetry.PromContentType {
			t.Fatalf("%s: Content-Type = %q", u, ct)
		}
		text := buf.String()
		if problems := telemetry.LintProm(text); len(problems) > 0 {
			t.Fatalf("%s: lint: %v", u, problems)
		}
		for _, want := range []string{
			"dswp_requests_total 1",
			`dswp_requests_outcome_total{outcome="completed"} 1`,
			`dswp_latency_us_bucket{path="total",le="+Inf"} 1`,
			`dswp_workload_requests_total{workload="list-traversal"} 1`,
			"dswp_traces_started_total 1",
			"dswp_trace_capacity 256",
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("%s: exposition missing %q:\n%s", u, want, text)
			}
		}
	}

	// Explicit ?format=json beats a Prometheus Accept header.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics?format=json", nil)
	req.Header.Set("Accept", "text/plain")
	fr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fr.Body.Close()
	if ct := fr.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("?format=json Content-Type = %q", ct)
	}
}

// TestReadEndpointsReject405 pins method discipline: every read-only
// endpoint answers non-GET with a 405 JSON body and an Allow header.
func TestReadEndpointsReject405(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/healthz", "/workloads", "/debug/requests", "/debug/vars"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		err = json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, resp.StatusCode)
		}
		if resp.Header.Get("Allow") != "GET, HEAD" {
			t.Errorf("POST %s Allow = %q", path, resp.Header.Get("Allow"))
		}
		if err != nil || eb.Class != "bad-request" {
			t.Errorf("POST %s body: class=%q err=%v", path, eb.Class, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("POST %s Content-Type = %q", path, ct)
		}
	}
	// GET endpoints advertise JSON explicitly.
	for _, path := range []string{"/healthz", "/workloads"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
	}
}

// TestDebugVarsWindow: /debug/vars reports uptime, the engine-wide
// window with served traffic, per-workload profiles, and honors
// ?series=0.
func TestDebugVarsWindow(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4, Telemetry: alwaysSample()})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()
	postRun(t, srv, `{"workload":"list-traversal","n":32}`)

	get := func(url string) debugVars {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var dv debugVars
		if err := json.NewDecoder(resp.Body).Decode(&dv); err != nil {
			t.Fatal(err)
		}
		return dv
	}
	dv := get(srv.URL + "/debug/vars")
	if dv.UptimeSeconds <= 0 || dv.Window.Seconds != telemetry.DefaultWindowSeconds {
		t.Fatalf("vars headline: %+v", dv)
	}
	if dv.Window.Rate1s < 1 || len(dv.Window.Series) == 0 {
		t.Fatalf("window missing served traffic: %+v", dv.Window)
	}
	if _, ok := dv.Workloads["list-traversal"]; !ok {
		t.Fatalf("per-workload profile missing: %v", dv.Workloads)
	}
	if lite := get(srv.URL + "/debug/vars?series=0"); len(lite.Window.Series) != 0 {
		t.Fatalf("?series=0 still carries %d points", len(lite.Window.Series))
	}
}

// TestDebugRequestsDisabled: with telemetry off the debug surface stays
// up (no 500s), reports disabled, and /run carries no request id.
func TestDebugRequestsDisabled(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4,
		Telemetry: telemetry.TraceOptions{Disable: true}})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	resp, _ := postRun(t, srv, `{"workload":"list-traversal","n":32}`)
	if id := resp.Header.Get("X-Request-ID"); id != "" {
		t.Fatalf("disabled tracing still minted id %q", id)
	}
	dr, err := http.Get(srv.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	var body debugRequests
	json.NewDecoder(dr.Body).Decode(&body)
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK || body.Enabled || len(body.Traces) != 0 {
		t.Fatalf("disabled /debug/requests: %d %+v", dr.StatusCode, body)
	}
	one, err := http.Get(srv.URL + "/debug/requests/r00000001")
	if err != nil {
		t.Fatal(err)
	}
	one.Body.Close()
	if one.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /debug/requests/{id}: %d", one.StatusCode)
	}
}

// TestMetricsPerWorkload: per-workload cumulative series aggregate
// independently, export sorted by name, and feed the end-to-end latency
// total and the per-workload windows of /debug/vars.
func TestMetricsPerWorkload(t *testing.T) {
	m := newMetrics(nil)
	m.observe("b-wl", true, "", 100, 2, false)
	m.observe("b-wl", true, "deadline", 900, 4, false)
	m.observe("a-wl", true, "", 50, 1, true)
	m.observe("nope", false, "bad-request", 0, 0, false)
	m.breakerTransition("a-wl")

	s := m.Snapshot()
	if len(s.Workloads) != 2 || s.Workloads[0].Workload != "a-wl" || s.Workloads[1].Workload != "b-wl" {
		t.Fatalf("workload order: %+v", s.Workloads)
	}
	b := s.Workloads[1]
	if b.Requests != 2 || b.ByClass["deadline"] != 1 || b.OccHW != 4 {
		t.Fatalf("b-wl stats: %+v", b)
	}
	if b.Latency.Sum != 100 { // only successes feed the latency hist
		t.Fatalf("b-wl latency sum = %d, want 100", b.Latency.Sum)
	}
	a := s.Workloads[0]
	if a.Degraded != 1 {
		t.Fatalf("a-wl degraded = %d", a.Degraded)
	}
	if tot := s.LatencyTotalUS; tot.Count != 2 || tot.Sum != 150 {
		t.Fatalf("latency total = count %d sum %d, want the two successes (2, 150)", tot.Count, tot.Sum)
	}
	if s.Window.ErrorsByClass60s["bad-request"] != 1 || s.Window.BreakerTransitions60s != 1 {
		t.Fatalf("engine window = %+v, want the unresolved request and the breaker transition", s.Window)
	}
	profs := debugVarsOf(s, false).Workloads
	if len(profs) != 2 {
		t.Fatalf("profiles = %+v", profs)
	}
	if p := profs["a-wl"]; p.Seconds != telemetry.DefaultWindowSeconds || p.BreakerTransitions60s != 1 {
		t.Fatalf("profiles[a-wl] = %+v, want a live window with the breaker transition", p)
	}
	if p, ok := profs["nope"]; ok {
		t.Fatalf("profiles[nope] = %+v, want no entry for an unresolved workload", p)
	}
}

// TestEncodersAgree serves completed, failed and shed requests with cache
// and pool hits and misses, then requires every integer of the /metrics
// JSON snapshot to equal its Prometheus sample: each counter and gauge,
// each failpoint count, and each histogram's count and buckets.
func TestEncodersAgree(t *testing.T) {
	bg := context.Background()
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	for _, body := range []string{
		`{"workload":"list-traversal","n":32}`, // cache and pool miss
		`{"workload":"list-traversal","n":32}`, // cache and pool hit
		`{"workload":"list-traversal","n":32,"mode":"bogus"}`,
		`{"workload":"nope"}`,
	} {
		postRun(t, srv, body)
	}
	slow := Request{Workload: "list-of-lists", Outer: 50, Inner: 6, InjectStallUS: 500}
	busy := runAsync(e, bg, slow)
	waitFor(t, func() bool { return e.Metrics().Snapshot().InFlight == 1 })
	queued := runAsync(e, bg, slow)
	waitFor(t, func() bool { return e.Metrics().Snapshot().Queued == 1 })
	_, err := e.Run(bg, slow)
	wantErr(t, err, ErrOverloaded)
	wantErr(t, <-busy, nil)
	wantErr(t, <-queued, nil)
	waitFor(t, func() bool { s := e.Metrics().Snapshot(); return s.InFlight == 0 && s.Queued == 0 })

	get := func(url string) []byte {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return buf.Bytes()
	}
	var js map[string]json.RawMessage
	if err := json.Unmarshal(get(srv.URL+"/metrics"), &js); err != nil {
		t.Fatal(err)
	}
	text := string(get(srv.URL + "/metrics?format=prometheus"))
	if problems := telemetry.LintProm(text); len(problems) > 0 {
		t.Fatalf("lint: %v", problems)
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(text, "\n") {
		lines[l] = true
	}
	want := func(line string) {
		t.Helper()
		if !lines[line] {
			t.Errorf("exposition has no line %q", line)
		}
	}
	for _, key := range []string{"completed", "failed", "shed", "cache_hits", "cache_misses", "pool_hits", "pool_misses"} {
		if string(js[key]) == "0" {
			t.Errorf("the traffic left %s at 0", key)
		}
	}

	st := reflect.TypeOf(EngineSnapshot{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		raw, ok := js[key]
		if key == "-" || !ok {
			continue
		}
		name, label, _ := strings.Cut(f.Tag.Get("prom"), ",")
		var labels []string
		if k, v, ok := strings.Cut(label, "="); ok {
			labels = append(labels, fmt.Sprintf(`%s=%q`, k, v))
		}
		// series renders one sample's name and label set.
		series := func(suffix string, extra ...string) string {
			ls := append(append([]string{}, labels...), extra...)
			if len(ls) == 0 {
				return name + suffix
			}
			return name + suffix + "{" + strings.Join(ls, ",") + "}"
		}
		switch f.Type.Kind() {
		case reflect.Int64:
			if name == "" {
				t.Errorf("JSON key %s has no Prometheus family", key)
				continue
			}
			want(series("") + " " + string(raw))
		case reflect.Map: // failpoints: site -> triggers
			var sites map[string]int64
			if err := json.Unmarshal(raw, &sites); err != nil {
				t.Fatal(err)
			}
			for site, n := range sites {
				want(fmt.Sprintf(`dswp_failpoint_triggers_total{site=%q} %d`, site, n))
			}
		default: // a histogram
			var h telemetry.HistSample
			if err := json.Unmarshal(raw, &h); err != nil {
				t.Fatal(err)
			}
			want(fmt.Sprintf("%s %d", series("_count"), h.Count))
			var cum int64
			for b, n := range h.Buckets {
				cum += n
				le := "+Inf"
				if b < obs.HistBuckets-1 {
					le = fmt.Sprint(obs.BucketHigh(b))
				}
				want(fmt.Sprintf("%s %d", series("_bucket", `le="`+le+`"`), cum))
			}
		}
	}
}
