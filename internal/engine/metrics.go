package engine

import (
	"sync/atomic"

	"dswp/internal/failpoint"
	"dswp/internal/obs"
)

// shardMetrics is one shard's hot counter block. Every field on the
// steady-state request path lives here, not on Metrics, so concurrent
// requests on different shards update disjoint cache lines instead of
// bouncing one set of counters between cores (the same false-sharing
// argument obs.QueueMetrics makes for queue endpoints). The trailing pad
// keeps the next shard's block off this one's last line; blocks are
// allocated contiguously by newMetrics so the layout is deterministic.
//
// Attribution: admission-side counters (requests, shed, drained,
// spilled) and cache/pool/compile counters belong to a request's *home*
// shard — the one its key hashes to, where its compiled artifact lives.
// Execution-side counters (queued, inflight, completed, failed, expired,
// latency) belong to the shard whose worker ran it, which differs from
// home only for spilled requests. Snapshot sums both views into the
// engine-wide totals, which stay exact either way.
type shardMetrics struct {
	// Request lifecycle.
	requests int64 // admitted or attempted (home)
	complete int64 // finished with a response (executing shard)
	failed   int64 // finished with an error (executing shard; pre-dispatch failures home)
	shed     int64 // rejected with ErrOverloaded — every shard queue full (home)
	drained  int64 // rejected or failed with ErrDraining during shutdown
	expired  int64 // deadline passed while still queued (executing shard)
	spilled  int64 // home-shard queue full, execution placed on a peer (home)

	// Gauges.
	inflight int64 // requests a worker is executing right now
	queued   int64 // requests admitted but not yet picked up

	// Compiled-pipeline cache (home shard).
	cacheHits   int64
	cacheMisses int64
	cacheEvicts int64
	compiles    int64

	// Warm instance pools (home shard — pools hang off cached pipelines).
	poolHits        int64
	poolMisses      int64
	poolMakes       int64
	poolDrops       int64
	poolQuarantined int64

	// Latency histograms and exact sums, microseconds (executing shard).
	latTotal    obs.Hist
	latQueue    obs.Hist
	latRun      obs.Hist
	latTotalSum int64
	latQueueSum int64
	latRunSum   int64

	_ [64]byte // keep the next shard's block off this line
}

// Metrics holds the engine's serving counters: the per-shard hot blocks
// plus engine-global cold-path counters (fault-tolerance outcomes,
// resource governance) whose update rates are too low to contend. All
// fields are updated atomically on their paths and read with atomic
// loads by Snapshot, so /metrics can export mid-run without pausing
// anything — the same contract obs.Metrics.Snapshot gives pipeline
// counters.
type Metrics struct {
	// shards are the per-shard hot blocks, one per engine shard,
	// contiguous so index i's pad separates it from block i+1.
	shards []shardMetrics

	// Fault-tolerance outcomes (cold: at most once per failed attempt).
	resumes        int64 // runs that fell back to checkpoint-seeded sequential resume
	retries        int64 // engine-level sequential retries after a pipelined failure
	degraded       int64 // requests served sequentially because a breaker was open
	breakerTrips   int64 // closed->open breaker transitions
	breakerOpen    int64 // gauge: workloads currently open or half-open
	durableCommits int64 // checkpoints written to the durable store
	storeErrors    int64 // durable commits that failed (run unaffected)
	recovered      int64 // orphaned requests finished by Recover after a restart

	// Resource governance (govern.go). inflightBytes stays engine-global
	// deliberately: the byte budget bounds the whole process, so its CAS
	// must see every shard's reservations.
	shedResource    int64 // runs shed because the in-flight byte budget was full
	requestTooLarge int64 // runs refused for exceeding the per-request byte cap
	inflightBytes   int64 // gauge: summed working-set estimate of executing runs
	inflightBytesHW int64 // lifetime high-water of inflightBytes
	reaped          int64 // hung runs force-canceled by the reaper
	bodyTooLarge    int64 // /run bodies rejected at the HTTP layer (413)

	// Parallel-stage replication (cold: once per compile / per served
	// replicated run).
	replicatedCompiles int64 // compiles that emitted a replicated pipeline
	replicaRuns        int64 // requests served on a replicated pipeline

	// Cold-compile latency (compiles are rare by design — the cache
	// exists to amortize them — so the histogram stays global).
	latCompile    obs.Hist
	latCompileSum int64
}

func newMetrics(shards int) *Metrics {
	return &Metrics{shards: make([]shardMetrics, shards)}
}

// RecordCompile adds one cold-compile latency sample (microseconds).
func (m *Metrics) RecordCompile(us int64) {
	m.latCompile.Add(us)
	atomic.AddInt64(&m.latCompileSum, us)
}

// EngineSnapshot is the JSON shape /metrics serves. Quantiles are bucket
// lower bounds (exact to within 2x, the log2 histogram's resolution).
// Engine-wide fields are sums over the per-shard blocks; Shards breaks
// the hot-path counters down by shard.
type EngineSnapshot struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`
	Drained   int64 `json:"drained"`
	Expired   int64 `json:"expired"`
	Spilled   int64 `json:"spilled"`

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
	Retries        int64 `json:"retries"`
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

	// Shards is the per-shard breakdown of the hot-path counters,
	// indexed by shard id. Omitted only by older readers; a single-shard
	// engine reports one entry.
	Shards []ShardSnapshot `json:"shards,omitempty"`
}

// ShardSnapshot is one shard's view of the hot-path counters; see
// shardMetrics for the home-vs-executing attribution rules.
type ShardSnapshot struct {
	ID          int   `json:"id"`
	Requests    int64 `json:"requests"`
	Completed   int64 `json:"completed"`
	Failed      int64 `json:"failed"`
	Shed        int64 `json:"shed"`
	Expired     int64 `json:"expired"`
	Spilled     int64 `json:"spilled"`
	InFlight    int64 `json:"in_flight"`
	Queued      int64 `json:"queued"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	CacheEvicts int64 `json:"cache_evicts"`
	Compiles    int64 `json:"compiles"`
	PoolHits    int64 `json:"pool_hits"`
	PoolMisses  int64 `json:"pool_misses"`
}

// HistSnapshot is one latency histogram with its headline quantiles.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Buckets obs.Hist `json:"buckets"`
}

func snapHist(h *obs.Hist) HistSnapshot {
	var s HistSnapshot
	for i := range h {
		s.Buckets[i] = atomic.LoadInt64(&h[i])
		s.Count += s.Buckets[i]
	}
	s.P50 = h.Quantile(0.50)
	s.P99 = h.Quantile(0.99)
	return s
}

// sumHists merges per-shard histogram blocks into one aggregate snapshot
// (log2 buckets sum exactly; quantiles are recomputed on the merged
// buckets, so they are as exact as any single histogram's).
func sumHists(hs []*obs.Hist) HistSnapshot {
	var merged obs.Hist
	for _, h := range hs {
		for i := range h {
			merged[i] += atomic.LoadInt64(&h[i])
		}
	}
	return snapHist(&merged)
}

// Snapshot copies every counter with atomic loads and sums the per-shard
// blocks into the engine-wide totals; safe mid-run.
func (m *Metrics) Snapshot() *EngineSnapshot {
	s := &EngineSnapshot{
		Resumes:        atomic.LoadInt64(&m.resumes),
		Retries:        atomic.LoadInt64(&m.retries),
		Degraded:       atomic.LoadInt64(&m.degraded),
		BreakerTrips:   atomic.LoadInt64(&m.breakerTrips),
		BreakerOpen:    atomic.LoadInt64(&m.breakerOpen),
		DurableCommits: atomic.LoadInt64(&m.durableCommits),
		StoreErrors:    atomic.LoadInt64(&m.storeErrors),
		Recovered:      atomic.LoadInt64(&m.recovered),

		ReplicatedCompiles: atomic.LoadInt64(&m.replicatedCompiles),
		ReplicaRuns:        atomic.LoadInt64(&m.replicaRuns),

		ShedResource:    atomic.LoadInt64(&m.shedResource),
		RequestTooLarge: atomic.LoadInt64(&m.requestTooLarge),
		InFlightBytes:   atomic.LoadInt64(&m.inflightBytes),
		InFlightBytesHW: atomic.LoadInt64(&m.inflightBytesHW),
		Reaped:          atomic.LoadInt64(&m.reaped),
		BodyTooLarge:    atomic.LoadInt64(&m.bodyTooLarge),
		Failpoints:      failpoint.Triggers(),

		LatencyCompileUS: snapHist(&m.latCompile),
	}
	totalHs := make([]*obs.Hist, 0, len(m.shards))
	queueHs := make([]*obs.Hist, 0, len(m.shards))
	runHs := make([]*obs.Hist, 0, len(m.shards))
	s.Shards = make([]ShardSnapshot, len(m.shards))
	for i := range m.shards {
		sm := &m.shards[i]
		ss := ShardSnapshot{
			ID:          i,
			Requests:    atomic.LoadInt64(&sm.requests),
			Completed:   atomic.LoadInt64(&sm.complete),
			Failed:      atomic.LoadInt64(&sm.failed),
			Shed:        atomic.LoadInt64(&sm.shed),
			Expired:     atomic.LoadInt64(&sm.expired),
			Spilled:     atomic.LoadInt64(&sm.spilled),
			InFlight:    atomic.LoadInt64(&sm.inflight),
			Queued:      atomic.LoadInt64(&sm.queued),
			CacheHits:   atomic.LoadInt64(&sm.cacheHits),
			CacheMisses: atomic.LoadInt64(&sm.cacheMisses),
			CacheEvicts: atomic.LoadInt64(&sm.cacheEvicts),
			Compiles:    atomic.LoadInt64(&sm.compiles),
			PoolHits:    atomic.LoadInt64(&sm.poolHits),
			PoolMisses:  atomic.LoadInt64(&sm.poolMisses),
		}
		s.Shards[i] = ss

		s.Requests += ss.Requests
		s.Completed += ss.Completed
		s.Failed += ss.Failed
		s.Shed += ss.Shed
		s.Drained += atomic.LoadInt64(&sm.drained)
		s.Expired += ss.Expired
		s.Spilled += ss.Spilled
		s.InFlight += ss.InFlight
		s.Queued += ss.Queued
		s.CacheHits += ss.CacheHits
		s.CacheMisses += ss.CacheMisses
		s.CacheEvicts += ss.CacheEvicts
		s.Compiles += ss.Compiles
		s.PoolHits += ss.PoolHits
		s.PoolMisses += ss.PoolMisses
		s.PoolMakes += atomic.LoadInt64(&sm.poolMakes)
		s.PoolDrops += atomic.LoadInt64(&sm.poolDrops)
		s.PoolQuarantined += atomic.LoadInt64(&sm.poolQuarantined)

		totalHs = append(totalHs, &sm.latTotal)
		queueHs = append(queueHs, &sm.latQueue)
		runHs = append(runHs, &sm.latRun)
	}
	s.LatencyTotalUS = sumHists(totalHs)
	s.LatencyQueueUS = sumHists(queueHs)
	s.LatencyRunUS = sumHists(runHs)
	return s
}

// latSums returns the exact per-path latency sums (microseconds) summed
// across shards; the Prometheus exposition's _sum lines need them.
func (m *Metrics) latSums() (total, queue, run int64) {
	for i := range m.shards {
		sm := &m.shards[i]
		total += atomic.LoadInt64(&sm.latTotalSum)
		queue += atomic.LoadInt64(&sm.latQueueSum)
		run += atomic.LoadInt64(&sm.latRunSum)
	}
	return
}
