package engine

import (
	"sort"
	"time"

	"dswp/internal/telemetry"
)

// PromText renders the engine's full metric surface in Prometheus text
// exposition format (0.0.4): every EngineSnapshot counter and gauge, the
// four serving-latency histograms with exact sums, the per-workload
// labeled series from the telemetry registry, and the tracer's
// tail-sampling counters. The JSON snapshot on /metrics is untouched —
// this is the same data under a second content type, chosen by Accept
// negotiation. LintProm validates the output in tests and CI.
func (e *Engine) PromText() string {
	p := telemetry.NewProm()
	s := e.met.Snapshot()
	one := func(v int64) []telemetry.Sample {
		return []telemetry.Sample{{Value: float64(v)}}
	}

	p.Counter("dswp_requests_total",
		"Requests admitted or attempted.", one(s.Requests)...)
	p.Counter("dswp_requests_outcome_total",
		"Finished requests by terminal outcome.",
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("outcome", "completed")}, Value: float64(s.Completed)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("outcome", "failed")}, Value: float64(s.Failed)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("outcome", "shed")}, Value: float64(s.Shed)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("outcome", "drained")}, Value: float64(s.Drained)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("outcome", "expired")}, Value: float64(s.Expired)})
	p.Gauge("dswp_inflight", "Requests executing right now.", one(s.InFlight)...)
	p.Gauge("dswp_queued", "Requests admitted but not yet picked up.", one(s.Queued)...)

	p.Counter("dswp_cache_total",
		"Compiled-pipeline cache events.",
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "hit")}, Value: float64(s.CacheHits)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "miss")}, Value: float64(s.CacheMisses)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "evict")}, Value: float64(s.CacheEvicts)})
	p.Counter("dswp_compiles_total",
		"core.Apply compilations actually executed.", one(s.Compiles)...)

	p.Counter("dswp_pool_total",
		"Warm instance pool events.",
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "hit")}, Value: float64(s.PoolHits)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "miss")}, Value: float64(s.PoolMisses)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "make")}, Value: float64(s.PoolMakes)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "drop")}, Value: float64(s.PoolDrops)},
		telemetry.Sample{Labels: []telemetry.Label{telemetry.L("event", "quarantine")}, Value: float64(s.PoolQuarantined)})

	p.Counter("dswp_resumes_total",
		"Runs finished by checkpoint-seeded sequential resume.", one(s.Resumes)...)
	p.Counter("dswp_degraded_total",
		"Requests served sequentially because a breaker was open.", one(s.Degraded)...)
	p.Counter("dswp_breaker_trips_total",
		"Closed-to-open circuit breaker transitions.", one(s.BreakerTrips)...)
	p.Gauge("dswp_breaker_open",
		"Workloads whose breaker is currently open or half-open.", one(s.BreakerOpen)...)
	p.Counter("dswp_durable_commits_total",
		"Checkpoints written to the durable store.", one(s.DurableCommits)...)
	p.Counter("dswp_store_errors_total",
		"Durable commits that failed (runs unaffected).", one(s.StoreErrors)...)
	p.Counter("dswp_recovered_total",
		"Orphaned requests finished by crash recovery.", one(s.Recovered)...)

	p.Counter("dswp_replica_compiles_total",
		"Compiles that emitted a parallel-stage-replicated pipeline.", one(s.ReplicatedCompiles)...)
	p.Counter("dswp_replica_runs_total",
		"Requests served on a replicated pipeline.", one(s.ReplicaRuns)...)

	p.Counter("dswp_shed_resource_total",
		"Runs shed because the in-flight memory budget was full.", one(s.ShedResource)...)
	p.Counter("dswp_request_too_large_total",
		"Runs refused for exceeding the per-request memory cap.", one(s.RequestTooLarge)...)
	p.Gauge("dswp_inflight_bytes",
		"Summed working-set estimate of executing runs.", one(s.InFlightBytes)...)
	p.Gauge("dswp_inflight_bytes_hw",
		"Lifetime high-water of dswp_inflight_bytes.", one(s.InFlightBytesHW)...)
	p.Counter("dswp_reaped_total",
		"Hung runs force-canceled by the wall-clock reaper.", one(s.Reaped)...)
	p.Counter("dswp_body_too_large_total",
		"Request bodies rejected at the HTTP layer (413).", one(s.BodyTooLarge)...)

	// Failpoint trigger counts by site: all zero (and absent) in
	// production, nonzero only while a chaos schedule is armed.
	if len(s.Failpoints) > 0 {
		sites := make([]string, 0, len(s.Failpoints))
		for site := range s.Failpoints {
			sites = append(sites, site)
		}
		sort.Strings(sites)
		samples := make([]telemetry.Sample, 0, len(sites))
		for _, site := range sites {
			samples = append(samples, telemetry.Sample{
				Labels: []telemetry.Label{telemetry.L("site", site)},
				Value:  float64(s.Failpoints[site])})
		}
		p.Counter("dswp_failpoint_triggers_total",
			"Injected-fault triggers by failpoint site.", samples...)
	}

	p.Histogram("dswp_latency_us",
		"Serving latency in microseconds by path segment (log2 buckets).",
		e.met.latTotal.Snapshot(telemetry.L("path", "total")),
		e.met.latQueue.Snapshot(telemetry.L("path", "queue")),
		e.met.latRun.Snapshot(telemetry.L("path", "run")),
		e.met.latCompile.Snapshot(telemetry.L("path", "compile")))

	// Per-workload labeled series. Only workloads that resolved are in the
	// registry, so label cardinality is bounded by the workload registry.
	wls := e.registry.PromSnapshot()
	if len(wls) > 0 {
		reqs := make([]telemetry.Sample, 0, len(wls))
		degraded := make([]telemetry.Sample, 0, len(wls))
		occ := make([]telemetry.Sample, 0, len(wls))
		hists := make([]telemetry.HistSample, 0, len(wls))
		var errSamples []telemetry.Sample
		for _, w := range wls {
			wl := []telemetry.Label{telemetry.L("workload", w.Workload)}
			reqs = append(reqs, telemetry.Sample{Labels: wl, Value: float64(w.Requests)})
			degraded = append(degraded, telemetry.Sample{Labels: wl, Value: float64(w.Degraded)})
			occ = append(occ, telemetry.Sample{Labels: wl, Value: float64(w.OccHW)})
			hists = append(hists, w.Latency)
			for _, class := range sortedClasses(w.ByClass) {
				errSamples = append(errSamples, telemetry.Sample{
					Labels: []telemetry.Label{telemetry.L("workload", w.Workload), telemetry.L("class", class)},
					Value:  float64(w.ByClass[class])})
			}
		}
		p.Counter("dswp_workload_requests_total",
			"Finished requests by workload.", reqs...)
		if len(errSamples) > 0 {
			p.Counter("dswp_workload_errors_total",
				"Errored requests by workload and failure class.", errSamples...)
		}
		p.Counter("dswp_workload_degraded_total",
			"Breaker-degraded sequential serves by workload.", degraded...)
		p.Gauge("dswp_workload_queue_occupancy_hw",
			"Lifetime admission-queue occupancy high-water by workload.", occ...)
		p.Histogram("dswp_workload_latency_us",
			"End-to-end success latency in microseconds by workload (log2 buckets).",
			hists...)
	}

	if e.tracer != nil {
		ts := e.tracer.Stats()
		p.Counter("dswp_traces_started_total",
			"Request traces started.", one(ts.Started)...)
		p.Counter("dswp_traces_kept_total",
			"Traces retained by tail sampling, by reason.",
			telemetry.Sample{Labels: []telemetry.Label{telemetry.L("reason", "error")}, Value: float64(ts.KeptError)},
			telemetry.Sample{Labels: []telemetry.Label{telemetry.L("reason", "slow")}, Value: float64(ts.KeptSlow)},
			telemetry.Sample{Labels: []telemetry.Label{telemetry.L("reason", "sampled")}, Value: float64(ts.KeptSampled)})
		p.Counter("dswp_traces_dropped_total",
			"Traces discarded by tail sampling.", one(ts.Dropped)...)
		p.Gauge("dswp_traces_retained",
			"Traces currently held in the bounded ring.", one(int64(ts.Retained))...)
		p.Gauge("dswp_trace_capacity",
			"Trace ring capacity.", one(int64(ts.Capacity))...)
	}

	p.Gauge("dswp_uptime_seconds", "Engine uptime.",
		telemetry.Sample{Value: time.Since(e.started).Seconds()})
	return p.String()
}

// sortedClasses orders an error-class map's keys for deterministic
// exposition output.
func sortedClasses(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
