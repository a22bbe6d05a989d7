// Command dswpload is the closed-loop HTTP load generator for dswpd. It
// drives POST /run on a live daemon and checks that identical requests
// return identical digests:
//
//	dswpload -addr localhost:7537          # closed loop for -duration
//	dswpload -addr localhost:7537 -smoke   # endpoint smoke pass first
//
// -clients goroutines issue requests from the -mix continuously for
// -duration. One canary request per mix entry pins the expected digest
// and every later response must match it. Failures are tallied by the
// server's typed error class; 429s count as shed load, not errors. The
// summary reports throughput, p50/p99/p99.9/mean latency, and the
// latency of each failure class. scripts/server_smoke.sh and
// scripts/metrics_smoke.sh run it against a freshly built dswpd.
//
// Performance is measured by perfbench (BENCHMARK.json), not here.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dswp/internal/engine"
	"dswp/internal/telemetry"
)

// result is the closed loop's summary. Latency quantiles are exact
// (computed from the full per-request sample); throughput_rps counts
// only completed requests.
type result struct {
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	Shed          int     `json:"shed"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50US         int64   `json:"p50_us"`
	P99US         int64   `json:"p99_us"`
	P999US        int64   `json:"p999_us"`
	MeanUS        int64   `json:"mean_us"`
	// LatencyByClass breaks non-success latency down by the server's
	// typed error class ("deadlock", "stage-panic", "shed", ...) plus
	// "transport" and "digest-mismatch": how long did failures take?
	LatencyByClass map[string]classLatency `json:"latency_by_class,omitempty"`
}

// classLatency summarizes one error class's latency distribution.
type classLatency struct {
	Count  int   `json:"count"`
	P50US  int64 `json:"p50_us"`
	P99US  int64 `json:"p99_us"`
	MeanUS int64 `json:"mean_us"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "dswpload:", err)
		os.Exit(1)
	}
}

// run is the whole command: parse args, optionally smoke every
// endpoint, then run the closed loop. Progress goes to stdout (stderr
// under -json, so stdout carries exactly one JSON object).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dswpload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "host:port (or URL) of the dswpd to drive (required)")
		clients  = fs.Int("clients", 0, "closed-loop client goroutines (0 = GOMAXPROCS)")
		duration = fs.Duration("duration", 3*time.Second, "closed-loop measurement window")
		mixFlag  = fs.String("mix", "list-traversal,list-of-lists", "comma-separated workload mix")
		n        = fs.Int64("n", 32, "list-traversal length in the mix")
		outer    = fs.Int64("outer", 4, "list-of-lists outer length in the mix")
		inner    = fs.Int64("inner", 2, "list-of-lists inner length in the mix")
		smoke    = fs.Bool("smoke", false, "first exercise /healthz, /workloads, one /run per workload, /metrics and the telemetry endpoints")
		jsonOut  = fs.Bool("json", false, "emit the summary as one JSON object on stdout (progress moves to stderr)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return errors.New("-addr is required")
	}
	if *clients <= 0 {
		*clients = runtime.GOMAXPROCS(0)
	}
	mix, err := buildMix(strings.Split(*mixFlag, ","), *n, *outer, *inner)
	if err != nil {
		return err
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	l := &loader{
		client: &http.Client{Timeout: 60 * time.Second},
		base:   strings.TrimRight(base, "/"),
		human:  stdout,
		errs:   stderr,
	}
	defer l.client.CloseIdleConnections()
	if *jsonOut {
		l.human = stderr
	}
	if *smoke {
		if err := l.smokeCheck(); err != nil {
			return err
		}
	}
	res, err := l.closedLoop(mix, *clients, *duration)
	if err != nil {
		return err
	}
	l.print(res)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Schema     string `json:"schema"`
			Addr       string `json:"addr"`
			Clients    int    `json:"clients"`
			DurationMS int64  `json:"duration_ms"`
			Result     result `json:"result"`
		}{"dswp-load-http/2", l.base, *clients, duration.Milliseconds(), res}); err != nil {
			return err
		}
	}
	if res.Errors > 0 {
		return fmt.Errorf("%d requests failed", res.Errors)
	}
	if res.Requests == 0 {
		return errors.New("no request completed")
	}
	return nil
}

// buildMix expands workload names into concrete requests.
func buildMix(names []string, n, outer, inner int64) ([]engine.Request, error) {
	var mix []engine.Request
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		req := engine.Request{Workload: name}
		switch name {
		case "list-traversal":
			req.N = n
		case "list-of-lists":
			req.Outer, req.Inner = outer, inner
		}
		mix = append(mix, req)
	}
	if len(mix) == 0 {
		return nil, errors.New("empty workload mix")
	}
	return mix, nil
}

// loader is one invocation's client and output streams.
type loader struct {
	client *http.Client
	base   string
	human  io.Writer // progress and the summary table
	errs   io.Writer // one line per failed request
}

// tally accumulates closed-loop outcomes; each client keeps its own and
// merges it once at the end.
type tally struct {
	lats       []time.Duration // successful requests
	errs, shed int
	classLats  map[string][]time.Duration // every non-success, shed included
}

func (t *tally) note(class string, el time.Duration) {
	if t.classLats == nil {
		t.classLats = map[string][]time.Duration{}
	}
	t.classLats[class] = append(t.classLats[class], el)
}

func (t *tally) merge(o *tally) {
	t.lats = append(t.lats, o.lats...)
	t.errs += o.errs
	t.shed += o.shed
	for k, v := range o.classLats {
		for _, el := range v {
			t.note(k, el)
		}
	}
}

// closedLoop pins the expected digest per mix entry with one canary
// request each, then runs clients closed-loop for dur. The generator has
// no in-process reference, so cross-request digest consistency is the
// correctness check.
func (l *loader) closedLoop(mix []engine.Request, clients int, dur time.Duration) (result, error) {
	want := make([]string, len(mix))
	for i, req := range mix {
		resp, status, class, err := l.post(req)
		if err != nil || status != http.StatusOK {
			return result{}, fmt.Errorf("canary %s: status=%d class=%s err=%v", req.Workload, status, class, err)
		}
		want[i] = resp.Digest
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total tally
		stop  = make(chan struct{})
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine tally
			for i := c; ; i++ {
				select {
				case <-stop:
					mu.Lock()
					total.merge(&mine)
					mu.Unlock()
					return
				default:
				}
				j := i % len(mix)
				t0 := time.Now()
				resp, status, class, err := l.post(mix[j])
				el := time.Since(t0)
				switch {
				case err != nil:
					mine.errs++
					mine.note("transport", el)
					fmt.Fprintf(l.errs, "dswpload: %s: %v\n", mix[j].Workload, err)
				case status == http.StatusTooManyRequests:
					mine.shed++ // load shedding is the server working as designed
					mine.note(class, el)
				case status != http.StatusOK:
					mine.errs++
					mine.note(class, el)
					fmt.Fprintf(l.errs, "dswpload: %s: status %d class %s\n", mix[j].Workload, status, class)
				case resp.Digest != want[j]:
					mine.errs++
					mine.note("digest-mismatch", el)
					fmt.Fprintf(l.errs, "dswpload: %s: digest %s, want %s\n", mix[j].Workload, resp.Digest, want[j])
				default:
					mine.lats = append(mine.lats, el)
				}
			}
		}(c)
	}
	time.Sleep(dur)
	close(stop)
	wg.Wait()
	return total.summarize(time.Since(start)), nil
}

func (t *tally) summarize(elapsed time.Duration) result {
	r := result{Requests: len(t.lats), Errors: t.errs, Shed: t.shed}
	for class, cl := range t.classLats {
		if r.LatencyByClass == nil {
			r.LatencyByClass = map[string]classLatency{}
		}
		p50, p99, _, mean := quantiles(cl)
		r.LatencyByClass[class] = classLatency{Count: len(cl), P50US: p50, P99US: p99, MeanUS: mean}
	}
	if len(t.lats) > 0 {
		r.ThroughputRPS = float64(len(t.lats)) / elapsed.Seconds()
		r.P50US, r.P99US, r.P999US, r.MeanUS = quantiles(t.lats)
	}
	return r
}

// quantiles sorts a non-empty sample in place and returns its p50, p99,
// p99.9 and mean in microseconds.
func quantiles(d []time.Duration) (p50, p99, p999, mean int64) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	at := func(num, den int) int64 {
		i := len(d) * num / den
		if i >= len(d) {
			i = len(d) - 1
		}
		return d[i].Microseconds()
	}
	return at(1, 2), at(99, 100), at(999, 1000), (sum / time.Duration(len(d))).Microseconds()
}

func (l *loader) print(r result) {
	fmt.Fprintf(l.human, "  http %7d reqs  %9.0f req/s  p50 %6dus  p99 %7dus  p99.9 %7dus  mean %6dus  errs %d shed %d\n",
		r.Requests, r.ThroughputRPS, r.P50US, r.P99US, r.P999US, r.MeanUS, r.Errors, r.Shed)
	classes := make([]string, 0, len(r.LatencyByClass))
	for k := range r.LatencyByClass {
		classes = append(classes, k)
	}
	sort.Strings(classes)
	for _, k := range classes {
		cl := r.LatencyByClass[k]
		fmt.Fprintf(l.human, "       %-18s n=%-6d p50 %6dus  p99 %7dus  mean %6dus\n",
			k, cl.Count, cl.P50US, cl.P99US, cl.MeanUS)
	}
}

// smokeCheck exercises every endpoint once: liveness, the workload
// catalog, one POST /run per servable workload (each response must
// carry a digest), and a /metrics scrape that must account for those
// runs. Any failure is an error — this is the server-smoke gate.
func (l *loader) smokeCheck() error {
	hr, err := l.client.Get(l.base + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke /healthz: status=%v err=%v", status(hr), err)
	}
	hr.Body.Close()

	var cat struct {
		Workloads []engine.WorkloadInfo `json:"workloads"`
	}
	if err := l.getJSON("/workloads", &cat); err != nil || len(cat.Workloads) == 0 {
		return fmt.Errorf("smoke /workloads: %d entries, err=%v", len(cat.Workloads), err)
	}
	for _, wi := range cat.Workloads {
		resp, st, class, err := l.post(engine.Request{Workload: wi.Name})
		if err != nil || st != http.StatusOK || resp.Digest == "" {
			return fmt.Errorf("smoke /run %s: status=%d class=%s err=%v", wi.Name, st, class, err)
		}
		fmt.Fprintf(l.human, "  smoke /run %-24s %s cache=%s pipelined=%v\n",
			wi.Name, resp.Digest, resp.Cache, resp.Pipelined)
	}
	// After the per-workload runs, /workloads must carry compile info
	// (checkpointable or not) for everything just served.
	if err := l.getJSON("/workloads", &cat); err != nil {
		return fmt.Errorf("smoke /workloads (2): %v", err)
	}
	for _, wi := range cat.Workloads {
		if !wi.Compiled || wi.Pipelined == nil || wi.Checkpointable == nil {
			return fmt.Errorf("smoke /workloads: %s served but compile info missing: %+v", wi.Name, wi)
		}
		if *wi.Pipelined && !*wi.Checkpointable {
			fmt.Fprintf(l.human, "  smoke note: %s pipelined but NOT checkpointable\n", wi.Name)
		}
	}

	var snap engine.EngineSnapshot
	if err := l.getJSON("/metrics", &snap); err != nil || snap.Completed < int64(len(cat.Workloads)) {
		return fmt.Errorf("smoke /metrics: completed=%d want >= %d, err=%v",
			snap.Completed, len(cat.Workloads), err)
	}
	if snap.PoolQuarantined > 0 {
		fmt.Fprintf(l.human, "  smoke note: %d instance(s) quarantined\n", snap.PoolQuarantined)
	}
	fmt.Fprintf(l.human, "  smoke /metrics: %d completed, %d compiles, p50 total %dus\n",
		snap.Completed, snap.Compiles, snap.LatencyTotalUS.P50)

	return l.smokeTelemetry()
}

// smokeTelemetry exercises the observability surface: the Prometheus
// representation of /metrics must negotiate correctly and lint clean,
// /run must stamp X-Request-ID, and the /debug endpoints must answer.
func (l *loader) smokeTelemetry() error {
	// Prometheus negotiation: Accept: text/plain flips the representation.
	req, err := http.NewRequest(http.MethodGet, l.base+"/metrics", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/plain")
	hr, err := l.client.Do(req)
	if err != nil || hr.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke /metrics (prom): status=%v err=%v", status(hr), err)
	}
	promText, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return fmt.Errorf("smoke /metrics (prom): Content-Type %q, want text/plain", ct)
	}
	if err != nil {
		return fmt.Errorf("smoke /metrics (prom): %v", err)
	}
	if problems := telemetry.LintProm(string(promText)); len(problems) > 0 {
		return fmt.Errorf("smoke /metrics (prom): lint: %s", strings.Join(problems, "; "))
	}
	if !strings.Contains(string(promText), "dswp_requests_total") {
		return errors.New("smoke /metrics (prom): dswp_requests_total missing")
	}

	// /run responses must carry the request ID the trace was minted under.
	body, _ := json.Marshal(engine.Request{Workload: "list-traversal", N: 8})
	hr, err = l.client.Post(l.base+"/run", "application/json", bytes.NewReader(body))
	if err != nil || hr.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke /run (traced): status=%v err=%v", status(hr), err)
	}
	io.Copy(io.Discard, hr.Body)
	hr.Body.Close()
	reqID := hr.Header.Get("X-Request-ID")
	if reqID == "" {
		return errors.New("smoke /run (traced): no X-Request-ID header")
	}

	var dbg struct {
		Enabled bool `json:"enabled"`
		Stats   struct {
			Started int64 `json:"started"`
		} `json:"stats"`
	}
	if err := l.getJSON("/debug/requests", &dbg); err != nil || !dbg.Enabled || dbg.Stats.Started == 0 {
		return fmt.Errorf("smoke /debug/requests: enabled=%v started=%d err=%v",
			dbg.Enabled, dbg.Stats.Started, err)
	}

	var vars struct {
		Window struct {
			Seconds int `json:"seconds"`
		} `json:"window"`
	}
	if err := l.getJSON("/debug/vars?series=0", &vars); err != nil || vars.Window.Seconds == 0 {
		return fmt.Errorf("smoke /debug/vars: window_seconds=%d err=%v", vars.Window.Seconds, err)
	}
	fmt.Fprintf(l.human, "  smoke telemetry: prom lints clean (%d bytes), request %s traced, window %ds\n",
		len(promText), reqID, vars.Window.Seconds)
	return nil
}

// getJSON GETs path and decodes a 200 response's JSON body into v.
func (l *loader) getJSON(path string, v any) error {
	hr, err := l.client.Get(l.base + path)
	if err != nil {
		return err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", hr.StatusCode)
	}
	return json.NewDecoder(hr.Body).Decode(v)
}

func status(hr *http.Response) int {
	if hr == nil {
		return 0
	}
	return hr.StatusCode
}

// post issues one /run. On non-200 it decodes the server's typed error
// body and returns its class ("deadlock", "stage-panic", "shed", ...).
func (l *loader) post(req engine.Request) (*engine.Response, int, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, "", err
	}
	hr, err := l.client.Post(l.base+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, "", err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		var eb struct {
			Class string `json:"class"`
		}
		class := "unknown"
		if json.NewDecoder(hr.Body).Decode(&eb) == nil && eb.Class != "" {
			class = eb.Class
		}
		return nil, hr.StatusCode, class, nil
	}
	var resp engine.Response
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, hr.StatusCode, "", err
	}
	return &resp, hr.StatusCode, "", nil
}
