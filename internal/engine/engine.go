// Package engine turns the DSWP toolchain into a pipeline-as-a-service:
// it compiles workloads once (dependence graph, DAG_SCC partitioning,
// flow insertion) and serves many executions of the compiled pipeline,
// the same compile-once/run-many split the paper's synchronization array
// assumes in hardware.
//
// The engine owns three resources the per-request path composes:
//
//   - a compiled-pipeline cache (cache.go): ref-counted, LRU-evicted
//     artifacts keyed by (workload, parameters, transform config), with
//     single-flight deduplication so N concurrent requests for the same
//     key trigger exactly one core.Apply;
//   - warm instance pools (pool.go): per-pipeline free lists of
//     runtime.Instance state (queues, register files, iteration counters)
//     that are reset-and-verified between runs instead of reallocated;
//   - admission control (this file): a bounded worker pool over a bounded
//     pending queue, with typed ErrOverloaded shedding when the queue is
//     full and per-request deadlines threaded into the supervisor's
//     context machinery.
//
// Executions run under the fault-tolerant supervisor by default, so every
// response is either bit-identical to sequential execution of the
// original loop or a typed error — the serving layer inherits the
// correctness contract the chaos harness soaks.
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/telemetry"
	"dswp/internal/workloads"
)

// Typed admission errors. The HTTP layer maps these onto status codes
// (429 and 503); programmatic callers match with errors.Is.
var (
	// ErrOverloaded is returned when the pending queue is full: the
	// request was shed without being admitted.
	ErrOverloaded = errors.New("engine: overloaded, request shed")
	// ErrDraining is returned once Shutdown has begun: new requests are
	// rejected and already-queued ones fail with this error while
	// in-flight runs complete.
	ErrDraining = errors.New("engine: draining, not accepting requests")
)

// UnknownWorkloadError identifies a request naming no registered workload.
type UnknownWorkloadError struct{ Name string }

func (e *UnknownWorkloadError) Error() string {
	return fmt.Sprintf("engine: unknown workload %q", e.Name)
}

// UnknownModeError identifies a request whose mode names no executor.
type UnknownModeError struct{ Name string }

func (e *UnknownModeError) Error() string {
	return fmt.Sprintf("engine: unknown mode %q (want supervised, concurrent or sequential)", e.Name)
}

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent pipeline executions (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the pending-request queue; a full queue sheds
	// with ErrOverloaded (default 4*Workers).
	QueueDepth int
	// CacheCap bounds the number of cached compiled pipelines; colder
	// unreferenced entries are LRU-evicted past it (default 32).
	CacheCap int
	// PoolSize bounds warm instances kept per compiled pipeline
	// (default Workers — at most Workers runs touch one pipeline at once).
	PoolSize int
	// Replicate defaults every request to parallel-stage replication
	// (psdswp): workloads with a replicable stage compile to a fan-out/
	// fan-in pipeline at the planner's width. Requests still carry their
	// own Replicate/ReplicaWidth knobs; this only flips the default on
	// (the dswpd -replicate flag).
	Replicate bool
	// QueueCap is the synchronization-array capacity of every served run
	// (default runtime.DefaultQueueCap); warm pools build instances at it.
	QueueCap int
	// Queue is the communication substrate of every served run.
	Queue queue.Kind
	// DefaultDeadline bounds requests that carry no deadline of their
	// own (default 30s; <0 disables).
	DefaultDeadline time.Duration
	// Store receives durable checkpoint commits from supervised runs and
	// feeds post-crash recovery (default: a fresh in-memory store, which
	// does not survive the process; dswpd passes a file-backed store).
	Store ckptstore.Store
	// CheckpointEvery is the commit period in outer-loop iterations for
	// supervised runs (0 = runtime.DefaultCheckpointEvery).
	CheckpointEvery int64
	// BreakerThreshold is the consecutive-pipelined-failure count that
	// trips a workload's circuit breaker to sequential-only serving
	// (default 3; <0 disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// half-open probe re-tests pipelining (default 5s).
	BreakerCooldown time.Duration
	// Telemetry configures request tracing with tail sampling; the zero
	// value traces with defaults, Telemetry.Disable turns tracing off
	// (the per-workload series and per-second windows in Metrics stay on
	// either way — they are aggregation, not retention).
	Telemetry telemetry.TraceOptions
	// MaxInFlightBytes bounds the summed working-set estimate of
	// concurrently executing runs; admission past it sheds with
	// ErrResourceExhausted (0 = unlimited; bytes are still accounted).
	MaxInFlightBytes int64
	// MaxRequestBytes bounds a single run's working-set estimate;
	// a request over it fails with *RequestTooLargeError — it can never
	// succeed by waiting (0 = unlimited).
	MaxRequestBytes int64
	// ReapAfter force-cancels any run executing longer than this
	// wall-clock bound and quarantines its instance; the request fails
	// with ErrReaped (0 = disabled). Defense in depth against runs that
	// stop consuming their context.
	ReapAfter time.Duration
	// MaxBodyBytes bounds the /run request body; larger bodies get 413
	// (default 1 MiB; <0 disables the limit).
	MaxBodyBytes int64
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 32
	}
	if o.PoolSize <= 0 {
		o.PoolSize = o.Workers
	}
	if o.QueueCap <= 0 {
		o.QueueCap = rt.DefaultQueueCap
	}
	if o.DefaultDeadline == 0 {
		o.DefaultDeadline = 30 * time.Second
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	} else if o.MaxBodyBytes < 0 {
		o.MaxBodyBytes = 0
	}
	return o
}

// Request describes one pipeline execution.
type Request struct {
	// Workload names a registered workload ("181.mcf", "list-traversal",
	// ...; see Workloads).
	Workload string `json:"workload"`
	// N parameterizes list-traversal length (default 1024).
	N int64 `json:"n,omitempty"`
	// Outer/Inner parameterize list-of-lists (defaults 64 and 8).
	Outer int64 `json:"outer,omitempty"`
	Inner int64 `json:"inner,omitempty"`
	// Threads is the pipeline depth target (default 2, the paper's
	// dual-core evaluation).
	Threads int `json:"threads,omitempty"`
	// PackFlows enables compiler-side flow packing.
	PackFlows bool `json:"pack_flows,omitempty"`
	// MasterLoop emits the §3 master-loop runtime protocol.
	MasterLoop bool `json:"master_loop,omitempty"`
	// ConservativeMemory builds the dependence graph with every memory
	// pair aliasing (the epicdec case-study mode).
	ConservativeMemory bool `json:"conservative_memory,omitempty"`
	// Replicate runs the parallel-stage replication planner (psdswp) and,
	// when it finds a replicable stage, serves the fan-out/fan-in
	// replicated pipeline. Workloads with no replicable stage fall back
	// to the plain pipeline — never an error.
	Replicate bool `json:"replicate,omitempty"`
	// ReplicaWidth overrides the planner's width choice (0 = let the
	// profile-driven balance data decide; capped at psdswp.MaxWidth
	// heuristically but explicit widths are honored). Only meaningful
	// with Replicate.
	ReplicaWidth int `json:"replica_width,omitempty"`
	// Mode selects execution: "supervised" (default; checkpointing,
	// sequential resume and the circuit breaker), "concurrent" (the bare
	// pipeline: its failure is the request's error), or "sequential" (the
	// untransformed loop on the interpreter). Any other value is refused
	// with *UnknownModeError before admission.
	Mode string `json:"mode,omitempty"`
	// DeadlineMillis bounds this request end to end, queue wait included
	// (0 = engine default).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// InjectPanic > 0 makes the last pipeline stage panic after that many
	// retired instructions — a fault-injection knob for chaos tests and
	// the crash-smoke harness. On a replicated pipeline the panic lands
	// on a single replica of the parallel stage instead, so chaos runs
	// exercise replica failure isolation. Injection bypasses the warm
	// pool.
	InjectPanic int64 `json:"inject_panic,omitempty"`
	// InjectStallUS > 0 stalls thread 0 that many microseconds every 64
	// retired instructions, stretching runs so a crash (or a shutdown)
	// can land mid-request.
	InjectStallUS int64 `json:"inject_stall_us,omitempty"`
}

// Response reports one served execution.
type Response struct {
	Workload string `json:"workload"`
	// RequestID is the trace id minted at admission (also echoed in the
	// X-Request-ID header); empty when tracing is disabled. A slow or
	// errored request's trace is retrievable at /debug/requests/{id}.
	RequestID string `json:"request_id,omitempty"`
	// Key is the cache key the request compiled under.
	Key string `json:"key"`
	// Digest is the FNV-1a state digest of the final architectural state
	// (hex) — identical requests must produce identical digests.
	Digest string `json:"digest"`
	// LiveOuts are thread 0's live-out registers.
	LiveOuts map[string]int64 `json:"live_outs,omitempty"`
	// Pipelined reports whether the run executed the compiled pipeline.
	// It is false for every sequential run: mode "sequential", a workload
	// with a single SCC (or an otherwise inapplicable transform), and a
	// run degraded by an open breaker.
	Pipelined bool `json:"pipelined"`
	// Threads and NumQueues describe the compiled pipeline.
	Threads   int `json:"threads,omitempty"`
	NumQueues int `json:"num_queues,omitempty"`
	// ReplicatedStage/ReplicaWidth report parallel-stage replication:
	// the stage served by ReplicaWidth round-robin replicas (absent when
	// the run was sequential or the pipeline is not replicated).
	ReplicatedStage int `json:"replicated_stage,omitempty"`
	ReplicaWidth    int `json:"replica_width,omitempty"`
	// Cache is "hit" or "miss".
	Cache string `json:"cache"`
	// Warm is true when the run reused a pooled instance.
	Warm bool `json:"warm"`
	// Degraded is true when the workload's circuit breaker was open and
	// the engine served the original sequential loop instead of the
	// pipeline (still bit-identical results, no speedup).
	Degraded bool `json:"degraded,omitempty"`
	// Resumed and Checkpoints surface the supervisor's report: Resumed is
	// true when the pipelined attempt failed and the supervisor finished
	// the request sequentially.
	Resumed     bool  `json:"resumed,omitempty"`
	Checkpoints int64 `json:"checkpoints,omitempty"`
	// ResumeIter is the iteration the resume started from; -1 means from
	// scratch. Only meaningful when Resumed.
	ResumeIter int64 `json:"resume_iter,omitempty"`
	// DurableCheckpoints counts commits written to the checkpoint store.
	DurableCheckpoints int64 `json:"durable_checkpoints,omitempty"`
	// Timing breakdown, microseconds.
	QueueMicros   int64 `json:"queue_us"`
	CompileMicros int64 `json:"compile_us"`
	RunMicros     int64 `json:"run_us"`
	TotalMicros   int64 `json:"total_us"`
}

// Engine is the serving runtime. Create with New, serve with Run (or the
// HTTP layer in http.go), stop with Shutdown.
type Engine struct {
	opts     Options
	met      *Metrics
	cache    *cache
	profiles *profiles
	// pending is the one admission queue, QueueDepth deep: when it is
	// full, Run sheds with ErrOverloaded instead of queueing unboundedly.
	pending chan *job
	stop    chan struct{}
	wg      sync.WaitGroup

	// Durable checkpoint plumbing: every supervised run commits under a
	// unique key; terminal outcomes delete it, so only a crash leaves
	// entries behind for Recover to find.
	store    ckptstore.Store
	ownStore bool  // Close the store on Shutdown only when we created it
	reqSeq   int64 // per-process request sequence for checkpoint keys

	// breaker degrades repeatedly-failing workloads to sequential.
	breaker *breaker

	// Resource governance: governor accounts and bounds in-flight run
	// memory (govern.go); reaper force-cancels wall-clock-hung runs
	// (nil = disabled).
	governor *governor
	reaper   *reaper

	// tracer keeps request traces with tail sampling (nil = disabled;
	// every call site is nil-safe). Every serving series lives in met.
	tracer *telemetry.Tracer

	// wlMu guards per-workload compile info (Checkpointable, Pipelined)
	// surfaced by /workloads, and the latest recovery stats for /healthz.
	wlMu     sync.Mutex
	wlInfo   map[string]wlCompileInfo
	recovery *RecoveryStats

	draining atomic.Bool
	// base is canceled only by a hard shutdown (drain deadline expired);
	// every in-flight run's context derives from both it and the request.
	base       context.Context
	cancelBase context.CancelFunc

	shutdownOnce sync.Once
	shutdownErr  error
}

type job struct {
	ctx       context.Context
	req       Request
	build     func() *workloads.Program
	key       string
	submitted time.Time
	res       *Response
	err       error
	done      chan struct{}

	// tr is the request's trace (nil when tracing is off); adm is its
	// open admission span, ended by the worker that dequeues the job.
	// The channel handoff orders the caller's writes before the worker's,
	// so the single-mutator contract on RequestTrace holds.
	tr  *telemetry.RequestTrace
	adm *telemetry.Span

	// reaped is set by the hung-run reaper when it force-cancels this
	// job's run; the instance is then quarantined and the error rewrapped
	// as ErrReaped.
	reaped atomic.Bool
}

// New starts an engine: opts.Workers goroutines consuming one bounded
// pending queue, in front of one compiled-pipeline cache.
func New(opts Options) *Engine {
	opts = opts.withDefaults()
	tracer := telemetry.NewTracer(opts.Telemetry)
	met := newMetrics(tracer)
	e := &Engine{
		opts:     opts,
		met:      met,
		cache:    newCache(opts.CacheCap, met),
		profiles: newProfiles(opts.CacheCap),
		pending:  make(chan *job, opts.QueueDepth),
		stop:     make(chan struct{}),
		wlInfo:   make(map[string]wlCompileInfo),
		tracer:   tracer,
	}
	e.store = opts.Store
	if e.store == nil {
		e.store = ckptstore.NewMem()
		e.ownStore = true
	}
	e.breaker = newBreaker(opts.BreakerThreshold, opts.BreakerCooldown, e.met)
	e.governor = newGovernor(opts.MaxInFlightBytes, opts.MaxRequestBytes, e.met)
	e.reaper = newReaper(opts.ReapAfter, e.met)
	e.base, e.cancelBase = context.WithCancel(context.Background())
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Metrics exposes the engine's counters; see Metrics.Snapshot.
func (e *Engine) Metrics() *Metrics { return e.met }

// Tracer exposes the request tracer; nil when tracing is disabled. The
// debug HTTP surface reads retained traces through it.
func (e *Engine) Tracer() *telemetry.Tracer { return e.tracer }

// Draining reports whether Shutdown has begun.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Run executes one request: admission, compile-or-hit, execution, all
// under the request deadline. It blocks until the response is ready, the
// context expires, or the request is shed.
func (e *Engine) Run(ctx context.Context, req Request) (*Response, error) {
	resp, _, err := e.RunTraced(ctx, req)
	return resp, err
}

// RunTraced is Run plus the request's trace id ("" when tracing is
// disabled). The id is minted at admission, so the HTTP layer can echo
// it as X-Request-ID even for requests that fail — the errored trace is
// then retrievable from /debug/requests/{id}.
func (e *Engine) RunTraced(ctx context.Context, req Request) (*Response, string, error) {
	if e.opts.Replicate {
		req.Replicate = true
	}
	tr := e.tracer.Start(req.Workload)
	var id string
	if tr != nil {
		id = tr.ID
	}
	// A request that never reaches the queue records its outcome here;
	// a queued one is finished, and counted, by whoever dequeues it.
	e.met.requests.Add(1)
	if e.draining.Load() {
		e.met.drained.Add(1)
		e.observe(tr, req.Workload, false, 0, ErrDraining, false)
		return nil, id, ErrDraining
	}
	build, key, err := resolve(req)
	if err != nil {
		e.met.failed.Add(1)
		e.observe(tr, req.Workload, false, 0, err, false)
		return nil, id, err
	}
	if err := fpAdmit.Fail(); err != nil {
		e.met.failed.Add(1)
		e.observe(tr, req.Workload, true, 0, err, false)
		return nil, id, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := e.opts.DefaultDeadline
	if req.DeadlineMillis > 0 {
		deadline = time.Duration(req.DeadlineMillis) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	adm := tr.Begin("admission")
	adm.Attr("queue_depth", int64(len(e.pending)))
	j := &job{ctx: ctx, req: req, build: build, key: key,
		tr: tr, adm: adm, submitted: time.Now(), done: make(chan struct{})}
	select {
	case e.pending <- j:
		e.met.queued.Add(1)
	default:
		e.met.shed.Add(1)
		tr.End(adm)
		e.observe(tr, req.Workload, true, 0, ErrOverloaded, false)
		return nil, id, ErrOverloaded
	}
	// A Shutdown that began after the draining check above may already
	// have run its last drain; drain again so the job is not stranded.
	if e.draining.Load() {
		e.failQueued()
	}
	select {
	case <-j.done:
		return j.res, id, j.err
	case <-ctx.Done():
		// The worker that eventually dequeues the job sees the expired
		// context, fails it fast and records its outcome; the caller
		// need not wait for that. The worker also owns finishing the
		// trace — it may still be mutating it after we return.
		return nil, id, ctx.Err()
	}
}

// observe completes a request's telemetry: the tail-sampling decision on
// its trace plus its series in Metrics (see Metrics.observe for known).
func (e *Engine) observe(tr *telemetry.RequestTrace, wl string, known bool,
	latUS int64, err error, degraded bool) {
	var class, msg string
	if err != nil {
		class, msg = ErrorClass(err), err.Error()
	}
	e.tracer.Finish(tr, msg, class)
	e.met.observe(wl, known, class, latUS, int64(len(e.pending)), degraded)
}

// worker consumes the pending queue until Shutdown.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case j := <-e.pending:
			e.serve(j)
		case <-e.stop:
			return
		}
	}
}

func (e *Engine) serve(j *job) {
	m := e.met
	m.queued.Add(-1)
	m.inflight.Add(1)
	// Deferred calls run last first: the run leaves the in-flight count
	// before its caller is released, so a caller never sees its own
	// finished request still in flight.
	defer close(j.done)
	defer m.inflight.Add(-1)

	queueWait := time.Since(j.submitted)
	m.latQueue.Add(queueWait.Microseconds())
	j.tr.End(j.adm)
	if err := j.ctx.Err(); err != nil {
		j.err = err
		m.expired.Add(1)
		e.observe(j.tr, j.req.Workload, true, queueWait.Microseconds(), err, false)
		return
	}

	// The run context dies with the request, a hard shutdown, or the
	// hung-run reaper.
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	defer context.AfterFunc(e.base, cancel)()
	if e.reaper != nil {
		defer e.reaper.forget(e.reaper.add(j.req.Workload, cancel, &j.reaped))
	}

	j.res, j.err = e.execute(ctx, j)
	if j.err != nil && j.reaped.Load() {
		j.err = fmt.Errorf("%w: %s ran past %s: %w",
			ErrReaped, j.req.Workload, e.opts.ReapAfter, j.err)
	}
	total := time.Since(j.submitted)
	if j.err != nil {
		m.failed.Add(1)
		e.observe(j.tr, j.req.Workload, true, total.Microseconds(), j.err, false)
		return
	}
	if j.tr != nil {
		j.res.RequestID = j.tr.ID
	}
	j.res.QueueMicros = queueWait.Microseconds()
	j.res.TotalMicros = total.Microseconds()
	m.latRun.Add(j.res.RunMicros)
	m.complete.Add(1)
	e.observe(j.tr, j.req.Workload, true, j.res.TotalMicros, nil, j.res.Degraded)
}

// execute compiles (or fetches) the pipeline and runs it on one of two
// executors: the original loop on the interpreter, or the pipeline under
// the supervisor (runPipelined).
func (e *Engine) execute(ctx context.Context, j *job) (*Response, error) {
	req := j.req
	tr := j.tr
	resp := &Response{Workload: req.Workload, Key: j.key}

	cs := tr.Begin("cache")
	p, hit, err := e.cache.acquire(ctx, j.key, func() (*pipeline, error) {
		return e.compile(req, j.build, j.key)
	})
	if hit {
		resp.Cache = "hit"
	} else {
		resp.Cache = "miss"
		if p != nil { // a failed cold compile has no pipeline
			resp.CompileMicros = p.compileMicros
		}
	}
	if err == nil {
		defer e.cache.release(p)
	}
	cs.Attr("outcome", resp.Cache)
	if resp.CompileMicros > 0 {
		cs.Attr("compile_us", resp.CompileMicros)
	}
	tr.End(cs)
	if err != nil {
		return nil, err
	}
	if p.tr != nil {
		resp.Threads = len(p.tr.Threads)
		resp.NumQueues = p.tr.NumQueues
	}

	// Memory-accounting admission: reserve the pipeline's working-set
	// estimate (or shed).
	if gerr := e.governor.admit(p.est); gerr != nil {
		return nil, gerr
	}
	defer e.governor.release(p.est)

	mode := req.Mode
	if mode == "" {
		mode = "supervised"
	}
	// Single-SCC workloads (164.gzip) compile to a nil transform and are
	// served on the interpreter, so every workload is runnable. The
	// breaker guards supervised runs only.
	pipelined := p.tr != nil && mode != "sequential"
	var probe bool
	if pipelined && mode == "supervised" {
		pipelined, probe = e.breaker.allow(req.Workload)
		if probe {
			tr.Event("breaker-probe")
		}
		if !pipelined {
			resp.Degraded = true
			e.met.degraded.Add(1)
			tr.Event("breaker-degraded")
		}
	}

	start := time.Now()
	rs := tr.Begin("run")
	rs.Attr("mode", mode).Attr("pipelined", pipelined)
	var res *interp.Result
	if pipelined {
		resp.Pipelined = true
		if topo := p.plan.Topology(); topo.Replicated() {
			resp.ReplicatedStage = topo.Stage
			resp.ReplicaWidth = topo.Width
			e.met.replicaRuns.Add(1)
			rs.Attr("replicated_stage", int64(topo.Stage))
			rs.Attr("replica_width", int64(topo.Width))
		}
		res, err = e.runPipelined(ctx, j, p, resp, mode == "supervised", probe)
	} else {
		res, err = interp.Run(p.prog.F, interp.Options{
			Ctx: ctx, Mem: p.prog.Mem, Regs: p.prog.Regs,
		})
	}
	tr.End(rs)
	if err != nil {
		return nil, err
	}
	resp.RunMicros = time.Since(start).Microseconds()

	resp.Digest = hex16(workloads.StateDigest(res))
	resp.LiveOuts = make(map[string]int64, len(res.LiveOuts))
	for r, v := range res.LiveOuts {
		resp.LiveOuts[r.String()] = v
	}
	return resp, nil
}

// hex16 renders a state digest as fixed-width hex.
func hex16(d uint64) string { return fmt.Sprintf("%016x", d) }

// stageLabels names a replicated pipeline's threads for per-replica
// telemetry spans ("stage 1 r0"); nil for sequential pipelines, which
// keep the default "stage N" names.
func stageLabels(topo *rt.Topology) []string {
	if !topo.Replicated() {
		return nil
	}
	labels := make([]string, topo.Threads)
	for i := range labels {
		if topo.StageOf(i) == topo.Stage {
			labels[i] = fmt.Sprintf("stage %d r%d", topo.Stage, topo.ReplicaOf(i))
		} else {
			labels[i] = fmt.Sprintf("stage %d", topo.StageOf(i))
		}
	}
	return labels
}

// runPipelined runs the compiled pipeline under the supervisor, on a
// warm instance at the engine's queue geometry. A concurrent run
// (supervised false) is the bare attempt: no checkpoints, no resume, no
// store, no breaker, so its failure is the request's error. A supervised
// run is where the engine's own fault-tolerance machinery composes with
// the supervisor's:
//
//   - the pipelined attempt commits durable checkpoints keyed uniquely
//     per request; a failed attempt resumes once, sequentially, from the
//     supervisor's newest commit, and a failed resume is the request's
//     error;
//   - every attempt that failed other than by cancellation counts against
//     the workload's breaker, resumed or not.
//
// Either way a panicked attempt quarantines its instance. Terminal
// outcomes of a supervised run — success, cancellation, failure — delete
// the request's store entry; a crash is the only path that leaves one
// behind, which is exactly what Recover scans for.
func (e *Engine) runPipelined(ctx context.Context, j *job, p *pipeline,
	resp *Response, supervised, probe bool) (*interp.Result, error) {

	req, tr := j.req, j.tr
	pl := supervisor.Pipeline{Threads: p.tr.Threads, Original: p.prog.F,
		Mem: p.prog.Mem, Regs: p.prog.Regs}
	pol := supervisor.Policy{
		Queue: e.opts.Queue, QueueCap: e.opts.QueueCap, Plan: p.plan,
		Faults:   faultsOf(req, p),
		Recorder: e.tracer.RunRecorder(tr, len(p.tr.Threads), p.labels...),
		// A concurrent run's failure is returned as-is.
		DisableResume: !supervised,
	}
	if supervised {
		pl.LoopHeader, pl.RegOwner = p.prog.LoopHeader, p.tr.RegOwner
		pol.CheckpointEvery, pol.Store = e.opts.CheckpointEvery, e.store
		pol.StoreKey = fmt.Sprintf("%s.r%06d", req.Workload, atomic.AddInt64(&e.reqSeq, 1))
		pol.StoreMeta, _ = json.Marshal(req)
		defer e.store.Delete(pol.StoreKey)
	}

	pol.Instance, resp.Warm = e.acquireInstance(tr, p, pol.Faults)
	res, srep, err := supervisor.Run(ctx, pl, pol)
	e.releaseInstance(p, pol.Instance, poisons(srep.Failure) || j.reaped.Load())
	if !supervised {
		return res, err
	}
	resp.Checkpoints = srep.Checkpoints
	resp.DurableCheckpoints = srep.DurableCommits
	e.met.durableCommits.Add(srep.DurableCommits)
	e.met.storeErrors.Add(srep.StoreErrors)
	// A canceled attempt is the caller's choice, not a pipeline failure.
	if srep.Failure == nil || !canceled(srep.Failure) {
		e.breaker.record(req.Workload, srep.Failure == nil, probe)
	}
	if err != nil {
		return nil, err
	}
	if srep.Resumed {
		resp.Resumed = true
		resp.ResumeIter = srep.ResumeIter
		e.met.resumes.Add(1)
	}
	return res, nil
}

// canceled reports whether err is the context's cancellation or deadline.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// poisons reports whether a run error means the instance's internal state
// can no longer be trusted: a stage panic may have died mid-operation on
// queues or register files, so the instance is quarantined rather than
// reset — Reset cannot prove a panic-interrupted queue consistent.
func poisons(err error) bool {
	var sf *rt.StageFailure
	return errors.As(err, &sf)
}

// faultsOf builds the injected fault plan a request's chaos knobs ask
// of a pipelined run; nil for ordinary requests.
func faultsOf(req Request, p *pipeline) *rt.FaultPlan {
	if req.InjectPanic <= 0 && req.InjectStallUS <= 0 {
		return nil
	}
	f := &rt.FaultPlan{Thread: map[int]failpoint.Policy{}}
	if req.InjectPanic > 0 {
		target := len(p.tr.Threads) - 1
		if topo := p.plan.Topology(); topo.Replicated() {
			// Kill one replica of the parallel stage rather than the
			// merge stage: replica death is the failure mode replication
			// introduces, so it is the one chaos should rehearse.
			rth := topo.ReplicaThreads()
			target = rth[len(rth)-1]
		}
		f.Thread[target] = failpoint.Policy{Action: failpoint.ActPanic, Nth: req.InjectPanic}
	}
	if req.InjectStallUS > 0 {
		f.Thread[0] = failpoint.Policy{Action: failpoint.ActSleep, Every: 64,
			Sleep: time.Duration(req.InjectStallUS) * time.Microsecond}
	}
	return f
}

// acquireInstance is instanceFor wrapped in a "pool-acquire" span, so a
// retained trace shows whether the run paid an allocation.
func (e *Engine) acquireInstance(tr *telemetry.RequestTrace, p *pipeline,
	faults *rt.FaultPlan) (*rt.Instance, bool) {
	ps := tr.Begin("pool-acquire")
	inst, warm := e.instanceFor(p, faults)
	ps.Attr("warm", warm)
	tr.End(ps)
	return inst, warm
}

// instanceFor fetches a warm instance from the pipeline's pool, or makes
// one that joins the pool when its run returns it. Fault-injecting
// requests always run on fresh state (Faults are incompatible with warm
// instances at the runtime layer).
func (e *Engine) instanceFor(p *pipeline, faults *rt.FaultPlan) (*rt.Instance, bool) {
	// An injected error forces the cold path (fresh allocation); a sleep
	// action delays acquisition. Neither may change results.
	if fpPool.Fail() != nil || faults != nil {
		e.met.poolMisses.Add(1)
		return nil, false
	}
	if inst := p.pool.get(); inst != nil {
		e.met.poolHits.Add(1)
		return inst, true
	}
	e.met.poolMisses.Add(1)
	return p.pool.make(), false
}

// releaseInstance hands a run's instance back to its pool; poisoned
// instances (the run panicked) are quarantined, never reissued.
func (e *Engine) releaseInstance(p *pipeline, inst *rt.Instance, poisoned bool) {
	if inst == nil {
		return
	}
	p.pool.release(inst, poisoned)
}

// compile builds the workload and applies the DSWP transformation; a
// single-SCC or unprofitable loop yields a sequential-only pipeline
// (tr == nil) rather than an error, so the cache remembers the outcome.
func (e *Engine) compile(req Request, build func() *workloads.Program, key string) (*pipeline, error) {
	if err := fpCompile.Fail(); err != nil {
		return nil, fmt.Errorf("engine: compile %s: %w", req.Workload, err)
	}
	start := time.Now()
	e.met.compiles.Add(1)
	prog := build()
	prof, err := e.profiles.collect(identOf(key), prog)
	if err != nil {
		return nil, fmt.Errorf("engine: profile %s: %w", req.Workload, err)
	}
	tr, err := core.Apply(prog.F, prog.LoopHeader, prof, configOf(req))
	if err != nil {
		if errors.Is(err, core.ErrSingleSCC) || errors.Is(err, core.ErrUnprofitable) {
			e.noteCompile(req.Workload, false, false)
			p := &pipeline{key: key, prog: prog,
				compileMicros: time.Since(start).Microseconds()}
			p.est = estimateBytes(p, e.opts.Queue, e.opts.QueueCap)
			return p, nil
		}
		return nil, fmt.Errorf("engine: transform %s: %w", req.Workload, err)
	}
	e.noteCompile(req.Workload, true, tr.Stats.Checkpointable)
	topo := rt.SequentialTopology(len(tr.Threads))
	if req.Replicate {
		prep := psdswp.Analyze(tr)
		tr.Stats.ReplicableSCCs = prep.ReplicableSCCs()
		width := req.ReplicaWidth
		if width <= 0 {
			width = prep.Width
		}
		if prep.Replicable() && width >= 2 {
			res, rerr := psdswp.Replicate(tr, prep.Stage, width)
			if rerr != nil {
				// The planner approved the stage; a rewriter refusal is a
				// compiler bug, not a servable outcome.
				return nil, fmt.Errorf("engine: replicate %s: %w", req.Workload, rerr)
			}
			tr = res.Tr
			topo = rt.ReplicatedTopology(len(tr.Threads), res.Stage, res.Width)
			e.met.replicatedCompiles.Add(1)
		}
	}
	plan, err := rt.NewPlan(tr.Threads)
	if err != nil {
		return nil, fmt.Errorf("engine: plan %s: %w", req.Workload, err)
	}
	plan.SetTopology(topo)
	p := &pipeline{key: key, prog: prog, tr: tr, plan: plan,
		labels:        stageLabels(topo),
		pool:          newPool(plan, e.opts.Queue, e.opts.QueueCap, e.opts.PoolSize, e.met),
		compileMicros: time.Since(start).Microseconds()}
	p.est = estimateBytes(p, e.opts.Queue, e.opts.QueueCap)
	e.met.latCompile.Add(p.compileMicros)
	return p, nil
}

// configOf maps a request onto the transform configuration. Profitability
// gating is always skipped: a serving request is an explicit ask for the
// pipelined form, not a compiler evaluating whether to bother.
func configOf(req Request) core.Config {
	cfg := core.Config{
		NumThreads:        req.Threads,
		SkipProfitability: true,
		PackFlows:         req.PackFlows,
		MasterLoop:        req.MasterLoop,
	}
	cfg.Dep.ConservativeMemory = req.ConservativeMemory
	return cfg
}

// Shutdown drains the engine: new requests are rejected with ErrDraining,
// queued-but-unstarted ones fail the same way, and in-flight runs are
// given until ctx expires to finish — after which they are hard-canceled
// through the context threaded into every stage goroutine. Idempotent;
// returns ctx's error when the deadline forced a hard cancel.
func (e *Engine) Shutdown(ctx context.Context) error {
	e.shutdownOnce.Do(func() {
		e.draining.Store(true)
		e.failQueued()
		close(e.stop)
		done := make(chan struct{})
		go func() { e.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			e.cancelBase()
			<-done
			e.shutdownErr = ctx.Err()
		}
		e.failQueued() // races between the draining flag and the queue
		e.cancelBase()
		e.reaper.close()
		if e.ownStore {
			e.store.Close()
		}
	})
	return e.shutdownErr
}

// failQueued fails every pending-but-unstarted job with ErrDraining.
func (e *Engine) failQueued() {
	for {
		select {
		case j := <-e.pending:
			e.met.queued.Add(-1)
			e.met.drained.Add(1)
			j.err = ErrDraining
			close(j.done)
		default:
			return
		}
	}
}
