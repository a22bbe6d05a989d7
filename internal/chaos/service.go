package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/engine"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/queue"
	"dswp/internal/testutil"
	"dswp/internal/workloads"
)

// Each service scenario sends requestsPerScenario requests from
// clientsPerScenario concurrent clients.
const (
	requestsPerScenario = 32
	clientsPerScenario  = 4
)

// shape is one entry of the request menu. It names the builder of the
// program the request runs, so the reference digest comes from the
// interpreter on the untransformed program, never from the engine.
type shape struct {
	name  string
	req   engine.Request
	build func() *workloads.Program
}

func shapes() []shape {
	list := func(n int64) func() *workloads.Program {
		return func() *workloads.Program { return workloads.ListTraversal(n) }
	}
	return []shape{
		{"list", engine.Request{Workload: "list-traversal", N: 200}, list(200)},
		{"list-packed", engine.Request{Workload: "list-traversal", N: 200, PackFlows: true}, list(200)},
		{"list-concurrent", engine.Request{Workload: "list-traversal", N: 160, Mode: "concurrent"}, list(160)},
		{"lol", engine.Request{Workload: "list-of-lists", Outer: 24, Inner: 4},
			func() *workloads.Program { return workloads.ListOfLists(24, 4) }},
		{"wc", engine.Request{Workload: "wc"}, builtin("wc")},
		{"gzip-seq", engine.Request{Workload: "164.gzip"}, builtin("164.gzip")}, // single SCC: served sequentially
		// PS-DSWP replicated pipelines: InjectPanic lands on a single
		// replica of the parallel stage (see engine.faultsOf).
		{"compress-rep", engine.Request{Workload: "29.compress", Replicate: true}, builtin("29.compress")},
		{"jpegenc-rep", engine.Request{Workload: "jpegenc", Replicate: true, ReplicaWidth: 4}, builtin("jpegenc")},
	}
}

func builtin(name string) func() *workloads.Program {
	for _, b := range append(workloads.Table1Suite(), workloads.CaseStudies()...) {
		if b.Name == name {
			return b.Build
		}
	}
	panic("chaos: no built-in workload " + name)
}

// armChoice is one entry of the failpoint menu. A spec with a %d takes a
// drawn seed, so probabilistic triggers replay. httpOnly sites abort
// connections, which only an HTTP client observes sanely.
type armChoice struct {
	site, spec string
	httpOnly   bool
}

var armMenu = []armChoice{
	{site: "ckptstore/file/write", spec: "error(ENOSPC):prob(0.3,%d)"},
	{site: "ckptstore/file/sync", spec: "error(EIO):prob(0.3,%d)"},
	{site: "ckptstore/file/rename", spec: "error(EIO):prob(0.2,%d)"},
	{site: "supervisor/ckpt/commit", spec: "error(EIO):prob(0.4,%d)"},
	{site: "engine/pool/acquire", spec: "error(x):prob(0.5,%d)"},
	{site: "engine/cache/compile", spec: "error(x):nth(3)"},
	{site: "engine/retry/resume", spec: "error(x):prob(0.5,%d)"},
	{site: "queue/ring/park", spec: "sleep(200us):prob(0.05,%d)"},
	{site: "engine/http/write-response", spec: "error(x):prob(0.2,%d)", httpOnly: true},
}

// serviceDriver holds the request menu and each shape's reference digest.
type serviceDriver struct {
	shapes []shape
	want   []string
}

func newServiceDriver() (*serviceDriver, error) {
	d := &serviceDriver{shapes: shapes()}
	for _, s := range d.shapes {
		p := s.build()
		res, err := interp.Run(p.F, p.Options())
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", s.name, err)
		}
		d.want = append(d.want, digestOf(res))
	}
	return d, nil
}

// call is one planned request.
type call struct {
	shape       int
	req         engine.Request
	cancelEarly bool // the caller walks away mid-request
}

// serviceRun is one service scenario: an engine shape, a failpoint
// schedule and every client's request plan, all drawn up front so the
// schedule does not depend on goroutine interleaving.
type serviceRun struct {
	d         *serviceDriver
	idx       int
	tag       string
	fileStore bool
	overHTTP  bool
	opts      engine.Options
	arms      [][2]string // site, spec
	clients   [][]call
}

func (s *serviceRun) String() string { return s.tag }

func (d *serviceDriver) scenario(seed uint64, i int) scenario {
	rng := scenarioRNG(seed, i)
	s := &serviceRun{d: d, idx: i, fileStore: rng.Index(2) == 0, overHTTP: i%3 == 2}
	threads := 2 + rng.Index(2)
	s.opts = engine.Options{
		Workers:         1 + rng.Index(3),
		QueueDepth:      4 + rng.Index(12),
		Queue:           queue.Kind(rng.Index(2)),
		Retries:         2,
		CheckpointEvery: 16,
		ReapAfter:       2 * time.Second, // hung-run backstop, far above normal latency
	}
	if rng.Index(4) == 0 {
		// A deliberately tiny memory budget: some requests must shed with
		// the typed ErrResourceExhausted instead of failing strangely.
		s.opts.MaxInFlightBytes = 192 << 10
	}
	var arms []string
	n := rng.Index(4)
	for _, j := range rng.Perm(int64(len(armMenu))) {
		c := armMenu[j]
		if len(s.arms) == n {
			break
		}
		if c.httpOnly && !s.overHTTP {
			continue
		}
		spec := c.spec
		if strings.Contains(spec, "%d") {
			spec = fmt.Sprintf(spec, rng.Next())
		}
		s.arms = append(s.arms, [2]string{c.site, spec})
		arms = append(arms, c.site+"="+spec)
	}
	var plan []string
	for c := 0; c < clientsPerScenario; c++ {
		calls := make([]call, requestsPerScenario/clientsPerScenario)
		for r := range calls {
			k := rng.Index(len(d.shapes))
			cl := call{shape: k, req: d.shapes[k].req}
			cl.req.Threads = threads
			name := d.shapes[k].name
			switch rng.Index(8) {
			case 0: // stage panic: retries must still land the digest
				cl.req.InjectPanic = 50 + rng.Intn(100)
				name += fmt.Sprintf("!panic@%d", cl.req.InjectPanic)
			case 1: // sub-millisecond deadline: typed deadline error
				cl.req.DeadlineMillis = 1
				name += "!1ms"
			case 2:
				cl.cancelEarly = true
				name += "!cancel"
			}
			calls[r] = cl
			plan = append(plan, name)
		}
		s.clients = append(s.clients, calls)
	}
	store := "mem"
	if s.fileStore {
		store = "file"
	}
	s.tag = fmt.Sprintf("service run=%d store=%s workers=%d depth=%d queue=%s threads=%d inflight=%d http=%v arms=[%s] calls=[%s]",
		i, store, s.opts.Workers, s.opts.QueueDepth, s.opts.Queue, threads,
		s.opts.MaxInFlightBytes, s.overHTTP, strings.Join(arms, " "), strings.Join(plan, " "))
	return s
}

func (s *serviceRun) run(ctx context.Context, rep *Report) {
	rep.ByQueue[s.opts.Queue.String()]++
	failpoint.Reset()
	defer failpoint.Reset()
	gbase := testutil.Snapshot()

	// Store: a real FileStore (fault-injectable file IO) or the in-memory one.
	opts := s.opts
	var fileStore *ckptstore.FileStore
	if s.fileStore {
		dir, err := os.MkdirTemp("", "dswpchaos-*")
		if err != nil {
			rep.violate(s.tag, "mkdtemp: %v", err)
			return
		}
		defer os.RemoveAll(dir)
		if fileStore, err = ckptstore.OpenFile(dir); err != nil {
			rep.violate(s.tag, "open file store: %v", err)
			return
		}
		fileStore.Logf = func(string, ...any) {} // degradation is expected here
		opts.Store = fileStore
	} else {
		opts.Store = ckptstore.NewMem()
	}
	connAbortArmed := false
	for _, a := range s.arms {
		if err := failpoint.Enable(a[0], a[1]); err != nil {
			rep.violate(s.tag, "arming %s: %v", a[0], err)
			return
		}
		connAbortArmed = connAbortArmed || a[0] == "engine/http/write-response"
	}

	e := engine.New(opts)
	var srv *httptest.Server
	var client *http.Client
	if s.overHTTP {
		srv = httptest.NewServer(engine.NewMux(e))
		client = &http.Client{Transport: &http.Transport{}}
	}
	var wg sync.WaitGroup
	for c, calls := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r, cl := range calls {
				o, hung := watched(ctx, func(ctx context.Context) outcome {
					return issue(ctx, e, srv, client, cl, connAbortArmed)
				})
				o.hung = hung
				tag := fmt.Sprintf("service run=%d client=%d call=%d %s", s.idx, c, r, s.d.shapes[cl.shape].name)
				rep.check(tag, s.d.want[cl.shape], o, true)
			}
		}()
	}
	wg.Wait()

	// /healthz must reflect a degraded checkpoint store while staying
	// live — checked before drain, while the degradation is current.
	if fileStore != nil && fileStore.DurabilityDegraded() {
		if !slices.Contains(e.DegradedSubsystems(), "checkpoint-store") {
			rep.violate(s.tag, "store degraded but missing from DegradedSubsystems: %v",
				e.DegradedSubsystems())
		}
		if s.overHTTP {
			if err := checkHealthzDegraded(client, srv.URL); err != nil {
				rep.violate(s.tag, "healthz: %v", err)
			}
		}
	}

	// Drain. A shutdown that cannot finish inside the grace window means
	// a run is hung — exactly what the harness exists to catch.
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := e.Shutdown(sctx); err != nil {
		rep.violate(s.tag, "shutdown did not drain (hung run?): %v", err)
	}
	scancel()
	if srv != nil {
		client.CloseIdleConnections()
		srv.Close()
	}

	// Collect trigger counts before disarming — Reset clears them.
	for site, n := range failpoint.Triggers() {
		rep.Triggered[site] += n
	}
	failpoint.Reset()

	// The checkpoint store converges to empty: every supervised run
	// deletes its entry on exit, success or failure.
	if fileStore != nil {
		if keys, err := fileStore.Keys(); err != nil {
			rep.violate(s.tag, "post-drain Keys: %v", err)
		} else if len(keys) > 0 {
			rep.violate(s.tag, "checkpoint store not empty after drain: %v", keys)
		}
	}
	if leaked := testutil.Leaked(gbase, 5*time.Second); len(leaked) > 0 {
		rep.violate(s.tag, "%d goroutines leaked; first:\n%s", len(leaked), leaked[0].Stack)
	}
}

// issue sends one request, in process or over HTTP, and reports what
// came back.
func issue(ctx context.Context, e *engine.Engine, srv *httptest.Server, client *http.Client,
	cl call, connAbortArmed bool) outcome {
	if cl.cancelEarly {
		cctx, cancel := context.WithCancel(ctx)
		defer cancel()
		defer time.AfterFunc(time.Duration(50+cl.req.N)*time.Microsecond, cancel).Stop()
		ctx = cctx
	}
	if srv == nil {
		resp, err := e.Run(ctx, cl.req)
		if err != nil {
			return failure(err)
		}
		return outcome{digest: resp.Digest}
	}

	// Over HTTP the error arrives as a class in the body. A harness-side
	// surprise is reported as "internal", which check flags as untyped.
	internal := func(format string, args ...any) outcome {
		return outcome{class: "internal", err: fmt.Sprintf(format, args...)}
	}
	connAbort := outcome{class: "conn-abort", err: "connection aborted", injected: true}
	body, _ := json.Marshal(cl.req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/run", bytes.NewReader(body))
	if err != nil {
		return internal("building request: %v", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := client.Do(hreq)
	switch {
	case err != nil && ctx.Err() != nil:
		return outcome{class: "deadline", err: err.Error()} // cancel surfaced at the transport
	case err != nil && connAbortArmed:
		return connAbort
	case err != nil:
		return internal("transport error without an armed abort: %v", err)
	}
	defer hresp.Body.Close()
	raw, err := io.ReadAll(hresp.Body)
	if err != nil {
		if connAbortArmed || ctx.Err() != nil {
			return connAbort
		}
		return internal("truncated response without an armed abort: %v", err)
	}
	if hresp.StatusCode == http.StatusOK {
		var rr engine.Response
		if err := json.Unmarshal(raw, &rr); err != nil {
			return internal("unparseable 200 body: %v", err)
		}
		return outcome{digest: rr.Digest}
	}
	var eb struct {
		Error string `json:"error"`
		Class string `json:"class"`
	}
	if err := json.Unmarshal(raw, &eb); err != nil || eb.Class == "" {
		return internal("status %d with unparseable error body: %s", hresp.StatusCode, raw)
	}
	return outcome{class: eb.Class, err: eb.Error,
		injected: strings.Contains(eb.Error, failpoint.ErrInjected.Error())}
}

func checkHealthzDegraded(client *http.Client, base string) error {
	resp, err := client.Get(base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("degraded process must stay live, got %d", resp.StatusCode)
	}
	var h struct {
		Status   string   `json:"status"`
		Degraded []string `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return err
	}
	if h.Status != "degraded" {
		return fmt.Errorf("status %q, want degraded", h.Status)
	}
	if !slices.Contains(h.Degraded, "checkpoint-store") {
		return fmt.Errorf("checkpoint-store missing from degraded list %v", h.Degraded)
	}
	return nil
}
