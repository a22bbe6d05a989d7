package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dswp/internal/failpoint"
	"dswp/internal/telemetry"
)

// Metrics is the one place the engine records serving series: the flat
// counter block, the latency histograms, each resolved workload's series
// and the engine-wide and per-workload per-second windows. Every counter
// is updated atomically on its path and read with atomic loads by
// Snapshot, so /metrics can export mid-run without pausing anything —
// the same contract obs.Metrics.Snapshot gives pipeline counters.
//
// Outcome conservation: every request adds to requests exactly once and
// ends in exactly one of completed, failed, shed, drained or expired,
// recorded where the request finishes — at admission for requests never
// queued, otherwise by the worker (or the shutdown drain) that finishes
// its job. A caller that stops waiting records nothing. At quiescence
// requests == completed+failed+shed+drained+expired.
type Metrics struct {
	// Request lifecycle.
	requests atomic.Int64 // admitted or attempted
	complete atomic.Int64 // finished with a response
	failed   atomic.Int64 // finished with an error
	shed     atomic.Int64 // rejected with ErrOverloaded: the pending queue was full
	drained  atomic.Int64 // rejected or failed with ErrDraining during shutdown
	expired  atomic.Int64 // deadline passed while still queued

	// Gauges.
	inflight atomic.Int64 // requests a worker is executing right now
	queued   atomic.Int64 // requests admitted but not yet picked up

	// Compiled-pipeline cache.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheEvicts atomic.Int64
	compiles    atomic.Int64

	// Warm instance pools.
	poolHits        atomic.Int64
	poolMisses      atomic.Int64
	poolMakes       atomic.Int64
	poolDrops       atomic.Int64
	poolQuarantined atomic.Int64

	// Fault-tolerance outcomes.
	resumes        atomic.Int64 // failed pipelined attempts the supervisor finished by sequential resume
	degraded       atomic.Int64 // requests served sequentially because a breaker was open
	breakerTrips   atomic.Int64 // closed->open breaker transitions
	breakerOpen    atomic.Int64 // gauge: workloads currently open or half-open
	durableCommits atomic.Int64 // checkpoints written to the durable store
	storeErrors    atomic.Int64 // durable commits that failed (run unaffected)
	recovered      atomic.Int64 // orphaned requests finished by Recover after a restart

	// Resource governance (govern.go).
	shedResource    atomic.Int64 // runs shed because the in-flight byte budget was full
	requestTooLarge atomic.Int64 // runs refused for exceeding the per-request byte cap
	inflightBytes   atomic.Int64 // gauge: summed working-set estimate of executing runs
	inflightBytesHW atomic.Int64 // lifetime high-water of inflightBytes
	reaped          atomic.Int64 // hung runs force-canceled by the reaper
	bodyTooLarge    atomic.Int64 // /run bodies rejected at the HTTP layer (413)

	// Parallel-stage replication.
	replicatedCompiles atomic.Int64 // compiles that emitted a replicated pipeline
	replicaRuns        atomic.Int64 // requests served on a replicated pipeline

	// Latency histograms with exact sums, microseconds. The end-to-end
	// histogram is not kept here: every success latency lands in its
	// workload's series, and Snapshot sums those.
	latQueue   telemetry.SumHist
	latRun     telemetry.SumHist
	latCompile telemetry.SumHist

	// window is the engine-wide per-second series. A zero Metrics has
	// none, which Window's nil-safe methods allow.
	window  *telemetry.Window
	tracer  *telemetry.Tracer // read for the snapshot; nil when tracing is disabled
	started time.Time         // for the snapshot's uptime

	// wls holds one series per resolved workload, so label cardinality is
	// bounded by the workload registry.
	wlMu sync.RWMutex
	wls  map[string]*workloadSeries
}

// workloadSeries is one workload's cumulative series and its window.
// Counter updates are atomic; the error-class map is small-cardinality
// and guarded by its own mutex off the success hot path.
type workloadSeries struct {
	requests atomic.Int64
	degraded atomic.Int64
	occHW    atomic.Int64      // lifetime admission-queue occupancy high-water
	latency  telemetry.SumHist // success latency, microseconds

	clsMu   sync.Mutex
	byClass map[string]int64

	window *telemetry.Window
}

func newMetrics(tracer *telemetry.Tracer) *Metrics {
	return &Metrics{window: telemetry.NewWindow(0), tracer: tracer, started: time.Now()}
}

// workload returns (creating on first sight) a workload's series.
func (m *Metrics) workload(wl string) *workloadSeries {
	m.wlMu.RLock()
	ws := m.wls[wl]
	m.wlMu.RUnlock()
	if ws != nil {
		return ws
	}
	m.wlMu.Lock()
	defer m.wlMu.Unlock()
	if ws = m.wls[wl]; ws == nil {
		if m.wls == nil {
			m.wls = make(map[string]*workloadSeries)
		}
		ws = &workloadSeries{window: telemetry.NewWindow(0)}
		m.wls[wl] = ws
	}
	return ws
}

// observe records one finished request: its error class ("" = success),
// end-to-end latency in microseconds, the admission-queue occupancy it
// saw, and whether the breaker degraded it. known marks the workload
// name as resolved — unknown client-supplied names reach only the
// engine-wide window.
func (m *Metrics) observe(wl string, known bool, class string, latUS, occ int64, degraded bool) {
	m.window.Observe(class, latUS, occ)
	if !known {
		return
	}
	ws := m.workload(wl)
	ws.requests.Add(1)
	if degraded {
		ws.degraded.Add(1)
	}
	raise(&ws.occHW, occ)
	if class != "" {
		ws.clsMu.Lock()
		if ws.byClass == nil {
			ws.byClass = make(map[string]int64, 4)
		}
		ws.byClass[class]++
		ws.clsMu.Unlock()
	} else {
		ws.latency.Add(latUS)
	}
	ws.window.Observe(class, latUS, occ)
}

// breakerTransition records one breaker state change of workload wl.
func (m *Metrics) breakerTransition(wl string) {
	m.window.ObserveBreaker()
	m.workload(wl).window.ObserveBreaker()
}

// admitBytes records the in-flight byte total after an admission.
func (m *Metrics) admitBytes(inflight int64) {
	raise(&m.inflightBytesHW, inflight)
	m.window.ObserveBytes(inflight)
}

// reap records one hung run force-canceled by the reaper.
func (m *Metrics) reap() {
	m.reaped.Add(1)
	m.window.ObserveReap()
}

// raise lifts a high-water mark to v.
func raise(hw *atomic.Int64, v int64) {
	for {
		old := hw.Load()
		if v <= old || hw.CompareAndSwap(old, v) {
			return
		}
	}
}

// EngineSnapshot is one copy of every serving series, taken by
// Metrics.Snapshot. Three encoders read it: /metrics JSON (the fields
// with JSON keys), /metrics Prometheus (promText) and /debug/vars
// (debugVarsOf). Each counter, gauge and histogram field declares its
// Prometheus family in its prom tag — "name" or "name,label=value",
// fields of one family adjacent — and the family's help text in the
// help tag of its first field. A family whose name ends in _total is a
// counter, any other integer family a gauge.
type EngineSnapshot struct {
	Requests  int64 `json:"requests" prom:"dswp_requests_total" help:"Requests admitted or attempted."`
	Completed int64 `json:"completed" prom:"dswp_requests_outcome_total,outcome=completed" help:"Finished requests by terminal outcome."`
	Failed    int64 `json:"failed" prom:"dswp_requests_outcome_total,outcome=failed"`
	Shed      int64 `json:"shed" prom:"dswp_requests_outcome_total,outcome=shed"`
	Drained   int64 `json:"drained" prom:"dswp_requests_outcome_total,outcome=drained"`
	Expired   int64 `json:"expired" prom:"dswp_requests_outcome_total,outcome=expired"`

	InFlight int64 `json:"in_flight" prom:"dswp_inflight" help:"Requests executing right now."`
	Queued   int64 `json:"queued" prom:"dswp_queued" help:"Requests admitted but not yet picked up."`

	CacheHits   int64 `json:"cache_hits" prom:"dswp_cache_total,event=hit" help:"Compiled-pipeline cache events."`
	CacheMisses int64 `json:"cache_misses" prom:"dswp_cache_total,event=miss"`
	CacheEvicts int64 `json:"cache_evicts" prom:"dswp_cache_total,event=evict"`
	Compiles    int64 `json:"compiles" prom:"dswp_compiles_total" help:"core.Apply compilations actually executed."`

	PoolHits        int64 `json:"pool_hits" prom:"dswp_pool_total,event=hit" help:"Warm instance pool events."`
	PoolMisses      int64 `json:"pool_misses" prom:"dswp_pool_total,event=miss"`
	PoolMakes       int64 `json:"pool_makes" prom:"dswp_pool_total,event=make"`
	PoolDrops       int64 `json:"pool_drops" prom:"dswp_pool_total,event=drop"`
	PoolQuarantined int64 `json:"pool_quarantined" prom:"dswp_pool_total,event=quarantine"`

	Resumes        int64 `json:"resumes" prom:"dswp_resumes_total" help:"Runs finished by checkpoint-seeded sequential resume."`
	Degraded       int64 `json:"degraded" prom:"dswp_degraded_total" help:"Requests served sequentially because a breaker was open."`
	BreakerTrips   int64 `json:"breaker_trips" prom:"dswp_breaker_trips_total" help:"Closed-to-open circuit breaker transitions."`
	BreakerOpen    int64 `json:"breaker_open" prom:"dswp_breaker_open" help:"Workloads whose breaker is currently open or half-open."`
	DurableCommits int64 `json:"durable_commits" prom:"dswp_durable_commits_total" help:"Checkpoints written to the durable store."`
	StoreErrors    int64 `json:"store_errors" prom:"dswp_store_errors_total" help:"Durable commits that failed (runs unaffected)."`
	Recovered      int64 `json:"recovered" prom:"dswp_recovered_total" help:"Orphaned requests finished by crash recovery."`

	ReplicatedCompiles int64 `json:"replicated_compiles" prom:"dswp_replica_compiles_total" help:"Compiles that emitted a parallel-stage-replicated pipeline."`
	ReplicaRuns        int64 `json:"replica_runs" prom:"dswp_replica_runs_total" help:"Requests served on a replicated pipeline."`

	ShedResource    int64 `json:"shed_resource" prom:"dswp_shed_resource_total" help:"Runs shed because the in-flight memory budget was full."`
	RequestTooLarge int64 `json:"request_too_large" prom:"dswp_request_too_large_total" help:"Runs refused for exceeding the per-request memory cap."`
	InFlightBytes   int64 `json:"inflight_bytes" prom:"dswp_inflight_bytes" help:"Summed working-set estimate of executing runs."`
	InFlightBytesHW int64 `json:"inflight_bytes_hw" prom:"dswp_inflight_bytes_hw" help:"Lifetime high-water of dswp_inflight_bytes."`
	Reaped          int64 `json:"reaped" prom:"dswp_reaped_total" help:"Hung runs force-canceled by the wall-clock reaper."`
	BodyTooLarge    int64 `json:"body_too_large" prom:"dswp_body_too_large_total" help:"Request bodies rejected at the HTTP layer (413)."`

	// Failpoints maps armed-and-triggered failpoint site names to their
	// trigger counts; empty (omitted) in production, populated only while
	// a chaos schedule is injecting faults.
	Failpoints map[string]int64 `json:"failpoints,omitempty"`

	LatencyTotalUS   telemetry.HistSample `json:"latency_total_us" prom:"dswp_latency_us,path=total" help:"Serving latency in microseconds by path segment (log2 buckets)."`
	LatencyQueueUS   telemetry.HistSample `json:"latency_queue_us" prom:"dswp_latency_us,path=queue"`
	LatencyRunUS     telemetry.HistSample `json:"latency_run_us" prom:"dswp_latency_us,path=run"`
	LatencyCompileUS telemetry.HistSample `json:"latency_compile_us" prom:"dswp_latency_us,path=compile"`

	// The fields below are not in /metrics JSON.

	// Workloads holds every resolved workload's series, sorted by name.
	Workloads []WorkloadSnapshot `json:"-"`
	// Window is the engine-wide per-second series, history included.
	Window telemetry.WindowSnapshot `json:"-"`
	// Tracer is the tracer's counters; nil when tracing is disabled.
	Tracer        *telemetry.TracerStats `json:"-"`
	UptimeSeconds float64                `json:"-"`
}

// WorkloadSnapshot is one workload's series in an EngineSnapshot.
type WorkloadSnapshot struct {
	Workload string
	Requests int64 // finished requests
	Degraded int64 // breaker-degraded sequential serves
	OccHW    int64 // lifetime admission-queue occupancy high-water
	ByClass  map[string]int64
	Latency  telemetry.HistSample     // success latency, labeled by workload
	Window   telemetry.WindowSnapshot // headlines only, no history
}

// Snapshot copies every series with atomic loads (the windows under
// their locks); safe mid-run.
func (m *Metrics) Snapshot() *EngineSnapshot {
	s := &EngineSnapshot{
		Requests:  m.requests.Load(),
		Completed: m.complete.Load(),
		Failed:    m.failed.Load(),
		Shed:      m.shed.Load(),
		Drained:   m.drained.Load(),
		Expired:   m.expired.Load(),

		InFlight: m.inflight.Load(),
		Queued:   m.queued.Load(),

		CacheHits:   m.cacheHits.Load(),
		CacheMisses: m.cacheMisses.Load(),
		CacheEvicts: m.cacheEvicts.Load(),
		Compiles:    m.compiles.Load(),

		PoolHits:        m.poolHits.Load(),
		PoolMisses:      m.poolMisses.Load(),
		PoolMakes:       m.poolMakes.Load(),
		PoolDrops:       m.poolDrops.Load(),
		PoolQuarantined: m.poolQuarantined.Load(),

		Resumes:        m.resumes.Load(),
		Degraded:       m.degraded.Load(),
		BreakerTrips:   m.breakerTrips.Load(),
		BreakerOpen:    m.breakerOpen.Load(),
		DurableCommits: m.durableCommits.Load(),
		StoreErrors:    m.storeErrors.Load(),
		Recovered:      m.recovered.Load(),

		ReplicatedCompiles: m.replicatedCompiles.Load(),
		ReplicaRuns:        m.replicaRuns.Load(),

		ShedResource:    m.shedResource.Load(),
		RequestTooLarge: m.requestTooLarge.Load(),
		InFlightBytes:   m.inflightBytes.Load(),
		InFlightBytesHW: m.inflightBytesHW.Load(),
		Reaped:          m.reaped.Load(),
		BodyTooLarge:    m.bodyTooLarge.Load(),
		Failpoints:      failpoint.Triggers(),

		LatencyQueueUS:   m.latQueue.Snapshot(),
		LatencyRunUS:     m.latRun.Snapshot(),
		LatencyCompileUS: m.latCompile.Snapshot(),

		Window:        m.window.Snapshot(true),
		UptimeSeconds: time.Since(m.started).Seconds(),
	}
	if m.tracer != nil {
		ts := m.tracer.Stats()
		s.Tracer = &ts
	}

	m.wlMu.RLock()
	names := make([]string, 0, len(m.wls))
	for name := range m.wls {
		names = append(names, name)
	}
	m.wlMu.RUnlock()
	sort.Strings(names)
	for _, name := range names {
		ws := m.workload(name)
		w := WorkloadSnapshot{
			Workload: name,
			Requests: ws.requests.Load(),
			Degraded: ws.degraded.Load(),
			OccHW:    ws.occHW.Load(),
			Latency:  ws.latency.Snapshot(telemetry.L("workload", name)),
			Window:   ws.window.Snapshot(false),
		}
		ws.clsMu.Lock()
		if len(ws.byClass) > 0 {
			w.ByClass = make(map[string]int64, len(ws.byClass))
			for k, v := range ws.byClass {
				w.ByClass[k] = v
			}
		}
		ws.clsMu.Unlock()
		s.LatencyTotalUS.Merge(w.Latency)
		s.Workloads = append(s.Workloads, w)
	}
	return s
}
