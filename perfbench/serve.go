package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"dswp/internal/core"
	"dswp/internal/engine"
	"dswp/internal/interp"
	"dswp/internal/queue"
	"dswp/internal/workloads"
)

const (
	// churnWarmups is how many requests each client sends before a churn
	// window, so the cache is full and evicting when timing starts.
	churnWarmups = 32
	// 1/baselineShare of a measured run pauses the clients to time the
	// served programs on the interpreter and the suite's compile pass.
	baselineShare = 5
)

// churnListSizes are the list-traversal lengths churn draws from; with
// threads, flow packing and replication drawn per request, they put the
// key space well past the engine's 32 cached pipelines.
var churnListSizes = []int64{256, 512, 768, 1024, 1280, 1536, 1792, 2048}

// servedProgram is one program served requests run.
type servedProgram struct {
	id    string // also the gate's reference key
	build func() *workloads.Program
	ref   *workloads.Program // untransformed, for the interpreter baseline
	req   engine.Request     // the workload and size fields
}

// serveBench is the serve or the churn workload: nproc closed-loop
// clients, each waiting for its reply, driving an engine configured as
// dswpd is by default through its HTTP handler in memory.
type serveBench struct {
	churn bool
	seed  int64
	g     *gate
	// groups holds one entry per workload name: the twelve loops DSWP
	// pipelines, list-traversal and list-of-lists. Churn's list-traversal
	// group holds every size, so list-traversal is drawn as often as any
	// other workload.
	groups  [][]*servedProgram
	sim     simTotals
	clients int
	eng     *engine.Engine
	handler http.Handler
}

// newEngine builds an engine with dswpd's default flags: channel
// substrate, 32 cached pipelines, an in-memory checkpoint store,
// telemetry on, and dswpd's memory and reaping bounds.
func newEngine() *engine.Engine {
	return engine.New(engine.Options{
		CacheCap:         32,
		Queue:            queue.KindChannel,
		DefaultDeadline:  30 * time.Second,
		MaxInFlightBytes: 256 << 20,
		MaxRequestBytes:  64 << 20,
		ReapAfter:        60 * time.Second,
	})
}

func shutdown(e *engine.Engine) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = e.Shutdown(ctx) // a drain error leaves nothing to clean up in a benchmark
}

func setupServe(seed int64, churn bool) (bench, error) {
	b := &serveBench{churn: churn, seed: seed, g: newGate(), clients: runtime.GOMAXPROCS(0)}
	_, pipelined, err := compilePass()
	if err != nil {
		return nil, err
	}
	for i, sb := range suite() {
		if pipelined[i] {
			b.groups = append(b.groups, []*servedProgram{{id: sb.Name, build: sb.Build,
				req: engine.Request{Workload: sb.Name}}})
		}
	}
	sizes := []int64{1024}
	if churn {
		sizes = churnListSizes
	}
	var lists []*servedProgram
	for _, n := range sizes {
		lists = append(lists, &servedProgram{id: fmt.Sprintf("list-traversal[n=%d]", n),
			build: func() *workloads.Program { return workloads.ListTraversal(n) },
			req:   engine.Request{Workload: "list-traversal", N: n}})
	}
	b.groups = append(b.groups, lists, []*servedProgram{{id: "list-of-lists[64x8]",
		build: func() *workloads.Program { return workloads.ListOfLists(64, 8) },
		req:   engine.Request{Workload: "list-of-lists", Outer: 64, Inner: 8}}})

	for _, p := range b.programs() {
		p.ref = p.build()
		if err := b.g.reference(p.id, p.ref); err != nil {
			return nil, err
		}
		// The cycle model at the engine's default pipeline: two threads,
		// profitability not consulted.
		tr, _, err := compile(p.build(), servedConfig(engine.Request{}))
		if err != nil {
			return nil, err
		}
		if tr == nil {
			return nil, fmt.Errorf("%s: DSWP declined a served program", p.id)
		}
		if err := b.sim.simulate(b.g, p.id, p.build(), tr.Threads); err != nil {
			return nil, err
		}
	}

	b.eng = newEngine()
	b.handler = engine.NewMux(b.eng)
	if err := b.warm(b.handler, true); err != nil {
		shutdown(b.eng)
		return nil, err
	}
	return b, nil
}

// warm fills the engine's cache and pools before timing. serve sends
// every program once per client; churn sends churnWarmups requests per
// client from a stream the timed window never replays. concurrent sends
// each client's requests from its own goroutine, as the window does;
// otherwise they go one at a time in a fixed order, so two engines warmed
// alike hold the same cache.
func (b *serveBench) warm(h http.Handler, concurrent bool) error {
	var ops [][]engine.Request
	var ids [][]string
	for c := 0; c < b.clients; c++ {
		var reqs []engine.Request
		var pids []string
		if b.churn {
			st := b.stream(c, 1)
			for k := 0; k < churnWarmups; k++ {
				p, req := st.next()
				reqs, pids = append(reqs, req), append(pids, p.id)
			}
		} else {
			for k := range b.groups {
				p := b.groups[(k+c*len(b.groups)/b.clients)%len(b.groups)][0]
				reqs, pids = append(reqs, p.req), append(pids, p.id)
			}
		}
		ops, ids = append(ops, reqs), append(ids, pids)
	}
	errs := make([]error, len(ops))
	send := func(c int) {
		for k, req := range ops[c] {
			if s := post(h, req); !b.g.matches(ids[c][k], s.digest) {
				errs[c] = fmt.Errorf("warm-up request %+v failed or differs from the reference", req)
				return
			}
		}
	}
	if concurrent {
		var wg sync.WaitGroup
		for c := range ops {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				send(c)
			}(c)
		}
		wg.Wait()
	} else {
		for c := range ops {
			send(c)
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// servedConfig mirrors the engine's request-to-compiler mapping for the
// fields the benchmark sets.
func servedConfig(req engine.Request) core.Config {
	return core.Config{NumThreads: req.Threads, SkipProfitability: true, PackFlows: req.PackFlows}
}

// stream is one client's seeded request sequence.
type stream struct {
	b    *serveBench
	r    *rand.Rand
	perm []int
	pos  int
}

// stream returns client c's sequence; salt 0 is the timed sequence, which
// the traced replay repeats, and salt 1 the warm-up one.
func (b *serveBench) stream(c int, salt int64) *stream {
	return &stream{b: b, r: rand.New(rand.NewSource(b.seed*1_000_003 + salt*1_009 + int64(c)))}
}

// next returns the next request. serve walks seeded permutations of the
// programs, so every program is requested equally often; churn draws a
// workload, a size and a config per request, in concurrent mode.
func (s *stream) next() (*servedProgram, engine.Request) {
	groups := s.b.groups
	if !s.b.churn {
		if s.pos == len(s.perm) {
			s.perm, s.pos = s.r.Perm(len(groups)), 0
		}
		p := groups[s.perm[s.pos]][0]
		s.pos++
		return p, p.req
	}
	grp := groups[s.r.Intn(len(groups))]
	p := grp[s.r.Intn(len(grp))]
	req := p.req
	req.Mode = "concurrent"
	req.Threads = 2 + s.r.Intn(3)
	req.PackFlows = s.r.Intn(2) == 1
	req.Replicate = s.r.Intn(2) == 1
	return p, req
}

// served is one request's outcome as a client sees it.
type served struct {
	lat    time.Duration
	digest string // "" when the request failed
	cache  string
}

// post sends req to h in memory and times the handler call; building the
// request and decoding the reply happen outside the timer.
func post(h http.Handler, req engine.Request) served {
	body, err := json.Marshal(req)
	if err != nil {
		return served{}
	}
	hr := httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, hr)
	s := served{lat: time.Since(start)}
	if w.Code != http.StatusOK {
		return s
	}
	var resp engine.Response
	if json.Unmarshal(w.Body.Bytes(), &resp) == nil {
		s.digest, s.cache = resp.Digest, resp.Cache
	}
	return s
}

// serveSamples is one closed-loop window.
type serveSamples struct {
	lat     []float64 // ok requests, ms
	ids     []string  // ok requests' program ids
	ops     int       // requests attempted
	elapsed time.Duration
}

// streams returns every client's timed request sequence from its start.
func (b *serveBench) streams() []*stream {
	sts := make([]*stream, b.clients)
	for c := range sts {
		sts[c] = b.stream(c, 0)
	}
	return sts
}

// window runs the clients closed-loop, client c drawing from sts[c], until
// d has elapsed; each finishes its request in flight.
func (b *serveBench) window(d time.Duration, sts []*stream) *serveSamples {
	per := make([]serveSamples, b.clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := &per[c]
			for time.Now().Before(deadline) {
				p, req := sts[c].next()
				s := post(b.handler, req)
				mine.ops++
				if b.g.check(p.id, s.digest) {
					mine.lat = append(mine.lat, millis(s.lat))
					mine.ids = append(mine.ids, p.id)
				}
			}
		}(c)
	}
	wg.Wait()
	out := &serveSamples{}
	for i := range per {
		out.merge(&per[i])
	}
	out.elapsed = time.Since(start)
	return out
}

// merge appends o's requests.
func (s *serveSamples) merge(o *serveSamples) {
	s.lat = append(s.lat, o.lat...)
	s.ids = append(s.ids, o.ids...)
	s.ops += o.ops
}

// byProgram groups the ok requests' latencies by program id.
func (s *serveSamples) byProgram() map[string][]float64 {
	m := map[string][]float64{}
	for i, id := range s.ids {
		m[id] = append(m[id], s.lat[i])
	}
	return m
}

// programs lists every served program, sorted by id.
func (b *serveBench) programs() []*servedProgram {
	var ps []*servedProgram
	for _, grp := range b.groups {
		ps = append(ps, grp...)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
	return ps
}

// baselineSamples are the interpreter and compile times the clients'
// pauses measure, in ms: seq per served program id, compiles per suite
// program in suite order.
type baselineSamples struct {
	seq      map[string][]float64
	compiles [][]float64
	passes   int
}

// baseline runs, with the clients paused, passes that time every served
// program on the interpreter and compile every suite program, as the
// loops workload does, until d has elapsed; program order rotates per
// pass, continuing from the passes bs already holds.
func (b *serveBench) baseline(d time.Duration, bs *baselineSamples) error {
	progs, builders := b.programs(), suite()
	if bs.seq == nil {
		bs.seq, bs.compiles = map[string][]float64{}, make([][]float64, len(builders))
	}
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		pass := bs.passes
		for k := range progs {
			p := progs[(k+pass)%len(progs)]
			start := time.Now()
			res, err := interp.Run(p.ref.F, p.ref.Options())
			el := time.Since(start)
			if err != nil {
				res = nil
			}
			if b.g.checkResult(p.id, res) {
				bs.seq[p.id] = append(bs.seq[p.id], millis(el))
			}
		}
		for k := range builders {
			j := (k + pass) % len(builders)
			_, ct, err := compile(builders[j].Build(), core.Config{})
			if err != nil {
				return err
			}
			bs.compiles[j] = append(bs.compiles[j], millis(ct.profile+ct.apply))
		}
		bs.passes++
	}
	return nil
}

func (b *serveBench) gate() *gate { return b.g }

func (b *serveBench) close() { shutdown(b.eng) }

// measureCycles is how many times a measured run alternates a serving
// block with a baseline block. Interleaving them exposes both to the same
// host drift, so the ratio of interpreter to served time (speedup) does
// not move with it.
const measureCycles = 5

// measure alternates serving blocks, four fifths of d in all, with
// baseline blocks that pause the clients and time the interpreter and
// the compile pass. The loop metrics compare, per served program, the
// median interpreter run with the mean served latency; the mean, because
// one program's requests mix configs (churn) or contention states
// (serve) whose medians jump between clusters.
func (b *serveBench) measure(d time.Duration) (report, error) {
	snap0 := b.eng.Metrics().Snapshot()
	sts := b.streams()
	s := &serveSamples{}
	var bs baselineSamples
	var blockRate, blockP50 []float64 // shown to expose drift within a run
	for c := 0; c < measureCycles; c++ {
		w := b.window((d-d/baselineShare)/measureCycles, sts)
		s.merge(w)
		s.elapsed += w.elapsed
		blockRate = append(blockRate, float64(len(w.lat))/w.elapsed.Seconds())
		blockP50 = append(blockP50, median(w.lat))
		if err := b.baseline(d/baselineShare/measureCycles, &bs); err != nil {
			return report{}, err
		}
	}
	snap1 := b.eng.Metrics().Snapshot()
	if len(s.lat) == 0 {
		return report{}, fmt.Errorf("no request succeeded in %v", d)
	}
	var r report
	var seqMs, pipeMs float64
	var ratios []float64
	byProg := s.byProgram()
	for _, p := range b.programs() {
		lat, seq := byProg[p.id], bs.seq[p.id]
		if len(lat) == 0 || len(seq) == 0 {
			continue
		}
		sq, sv := median(seq), mean(lat)
		seqMs += sq
		pipeMs += sv
		ratios = append(ratios, sq/sv)
		r.note("program %-22s seq_ms %8.3f served_ms %9.3f x %.4f requests %d", p.id, sq, sv, sq/sv, len(lat))
	}
	t := tailOf(s.lat)
	hits, misses := snap1.CacheHits-snap0.CacheHits, snap1.CacheMisses-snap0.CacheMisses
	r.note("%d requests from %d clients in %.3f s of serving; %d baseline passes; cache hits %d misses %d evictions %d",
		s.ops, b.clients, s.elapsed.Seconds(), bs.passes, hits, misses, snap1.CacheEvicts-snap0.CacheEvicts)
	q1, q2, q3 := quartiles(s.lat)
	r.note("request latency quartiles %.3f %.3f %.3f ms; req_tail_ms is p%g of %d ok requests, %d beyond it",
		q1, q2, q3, t.P, t.N, t.Beyond)
	r.note("per serving block: req/s %.2f, p50 ms %.1f", blockRate, blockP50)
	r.add("speedup", geomean(ratios), "x")
	r.add("seq_ms", seqMs, "ms")
	r.add("pipe_ms", pipeMs, "ms")
	r.add("sim_speedup", geomean(b.sim.speedups), "x")
	r.add("compile_ms", sumOfMedians(bs.compiles), "ms")
	r.add("req_per_s", float64(len(s.lat))/s.elapsed.Seconds(), "req/s")
	r.add("req_p50_ms", median(s.lat), "ms")
	r.add("req_tail_ms", t.Value, "ms")
	return r, nil
}
