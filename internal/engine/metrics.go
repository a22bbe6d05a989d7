package engine

import (
	"sync/atomic"

	"dswp/internal/failpoint"
	"dswp/internal/obs"
	"dswp/internal/telemetry"
)

// Metrics holds the engine's serving counters in one flat block. Every
// field is updated atomically on its path and read with atomic loads by
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

	// Latency histograms with exact sums, microseconds.
	latTotal   telemetry.SumHist
	latQueue   telemetry.SumHist
	latRun     telemetry.SumHist
	latCompile telemetry.SumHist
}

// EngineSnapshot is the JSON shape /metrics serves. Quantiles are bucket
// lower bounds (exact to within 2x, the log2 histogram's resolution).
type EngineSnapshot struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	Drained   int64 `json:"drained"`
	Expired   int64 `json:"expired"`

	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheEvicts int64 `json:"cache_evicts"`
	Compiles    int64 `json:"compiles"`

	PoolHits        int64 `json:"pool_hits"`
	PoolMisses      int64 `json:"pool_misses"`
	PoolMakes       int64 `json:"pool_makes"`
	PoolDrops       int64 `json:"pool_drops"`
	PoolQuarantined int64 `json:"pool_quarantined"`

	Resumes        int64 `json:"resumes"`
	Degraded       int64 `json:"degraded"`
	BreakerTrips   int64 `json:"breaker_trips"`
	BreakerOpen    int64 `json:"breaker_open"`
	DurableCommits int64 `json:"durable_commits"`
	StoreErrors    int64 `json:"store_errors"`
	Recovered      int64 `json:"recovered"`

	ReplicatedCompiles int64 `json:"replicated_compiles"`
	ReplicaRuns        int64 `json:"replica_runs"`

	ShedResource    int64 `json:"shed_resource"`
	RequestTooLarge int64 `json:"request_too_large"`
	InFlightBytes   int64 `json:"inflight_bytes"`
	InFlightBytesHW int64 `json:"inflight_bytes_hw"`
	Reaped          int64 `json:"reaped"`
	BodyTooLarge    int64 `json:"body_too_large"`

	// Failpoints maps armed-and-triggered failpoint site names to their
	// trigger counts; empty (omitted) in production, populated only while
	// a chaos schedule is injecting faults.
	Failpoints map[string]int64 `json:"failpoints,omitempty"`

	LatencyTotalUS   HistSnapshot `json:"latency_total_us"`
	LatencyQueueUS   HistSnapshot `json:"latency_queue_us"`
	LatencyRunUS     HistSnapshot `json:"latency_run_us"`
	LatencyCompileUS HistSnapshot `json:"latency_compile_us"`
}

// HistSnapshot is one latency histogram with its headline quantiles.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Buckets obs.Hist `json:"buckets"`
}

func snapHist(h *telemetry.SumHist) HistSnapshot {
	b := h.Snapshot().Buckets
	return HistSnapshot{Count: b.Total(), P50: b.Quantile(0.50), P99: b.Quantile(0.99), Buckets: b}
}

// Snapshot copies every counter with atomic loads; safe mid-run.
func (m *Metrics) Snapshot() *EngineSnapshot {
	return &EngineSnapshot{
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

		LatencyTotalUS:   snapHist(&m.latTotal),
		LatencyQueueUS:   snapHist(&m.latQueue),
		LatencyRunUS:     snapHist(&m.latRun),
		LatencyCompileUS: snapHist(&m.latCompile),
	}
}
