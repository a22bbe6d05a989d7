package main

import (
	"runtime"

	"dswp/internal/obs"
)

// layers is one workload's per-layer ledger, per operation: a pass over
// the suite for loops, a request for serve and churn. A layer the
// workload's operations never call reads 0; NOTES.md lists which.
//
// The *_ms self times of the layer calls plus residual_ms add up to
// opMs, the untraced per-operation time; the counts and stage/queue
// figures break those times down and are not part of the sum.
type layers struct {
	profileMs, applyMs float64
	sccs, queues       float64
	psdswpMs           float64
	rtPlanMs           float64
	interpMs, instrs   float64

	runtimeMs                   float64
	busyMs, fullMs, emptyMs     float64
	values, stalls              float64
	sim                         simTotals
	barrierMs, checkpoints      float64
	commitMs, commits           float64
	engineMs                    float64
	cacheHit, poolHit, compiles float64
	codecMs                     float64
	gcPauseMs, allocMiB         float64
	opMs                        float64
	pipeUntraced, pipeTraced    float64
	p50Untraced, p50Traced      float64
}

// addStages adds one traced runtime run's stage and queue figures.
func (l *layers) addStages(m *obs.Metrics) {
	for i := 0; i < m.NumStages(); i++ {
		s := m.Stage(i)
		l.busyMs += float64(s.BusyTicks()) / 1e6 // runtime ticks are ns
		l.fullMs += float64(s.StallFullTicks) / 1e6
		l.emptyMs += float64(s.StallEmptyTicks) / 1e6
	}
	for q := 0; q < m.NumQueues(); q++ {
		qm := m.Queue(q)
		l.values += float64(qm.Produces)
		l.stalls += float64(qm.StallFull + qm.StallEmpty)
	}
}

// scale divides every per-operation sum by n operations.
func (l *layers) scale(n float64) {
	for _, p := range []*float64{&l.profileMs, &l.applyMs, &l.sccs, &l.queues,
		&l.psdswpMs, &l.rtPlanMs, &l.interpMs, &l.instrs, &l.runtimeMs,
		&l.busyMs, &l.fullMs, &l.emptyMs, &l.values, &l.stalls,
		&l.barrierMs, &l.checkpoints, &l.commitMs, &l.commits, &l.engineMs, &l.codecMs} {
		*p /= n
	}
}

// report renders the ledger in the order BENCHMARK.json lists it.
func (l *layers) report() report {
	var r report
	self := l.profileMs + l.applyMs + l.psdswpMs + l.rtPlanMs + l.interpMs +
		l.runtimeMs + l.barrierMs + l.commitMs + l.engineMs + l.codecMs
	nsPerValue := 0.0
	if l.values > 0 {
		nsPerValue = l.runtimeMs * 1e6 / l.values
	}
	r.add("profile.collect_ms", l.profileMs, "ms")
	r.add("core.apply_ms", l.applyMs, "ms")
	r.add("core.sccs", l.sccs, "count")
	r.add("core.queues", l.queues, "count")
	r.add("psdswp.plan_ms", l.psdswpMs, "ms")
	r.add("runtime.plan_ms", l.rtPlanMs, "ms")
	r.add("interp.run_ms", l.interpMs, "ms")
	r.add("interp.instrs", l.instrs, "count")
	r.add("runtime.run_ms", l.runtimeMs, "ms")
	r.add("stage.busy_ms", l.busyMs, "ms")
	r.add("stage.blocked_full_ms", l.fullMs, "ms")
	r.add("stage.blocked_empty_ms", l.emptyMs, "ms")
	r.add("queue.values", l.values, "count")
	r.add("queue.stalls", l.stalls, "count")
	r.add("queue.ns_per_value", nsPerValue, "ns")
	l.sim.addTo(&r)
	r.add("supervisor.barrier_ms", l.barrierMs, "ms")
	r.add("supervisor.checkpoints", l.checkpoints, "count")
	r.add("ckptstore.commit_ms", l.commitMs, "ms")
	r.add("ckptstore.commits", l.commits, "count")
	r.add("engine.overhead_ms", l.engineMs, "ms")
	r.add("engine.cache_hit_share", l.cacheHit, "ratio")
	r.add("engine.pool_hit_share", l.poolHit, "ratio")
	r.add("engine.compiles", l.compiles, "count")
	r.add("http.codec_ms", l.codecMs, "ms")
	r.add("gc.pause_ms", l.gcPauseMs, "ms")
	r.add("alloc_mb_per_op", l.allocMiB, "MiB")
	r.add("residual_ms", l.opMs-self, "ms")
	r.add("ledger.op_ms", l.opMs, "ms")
	r.add("trace.pipe_overhead_pct", overheadPct(l.pipeTraced, l.pipeUntraced), "%")
	r.add("trace.req_p50_overhead_pct", overheadPct(l.p50Traced, l.p50Untraced), "%")
	r.note("ledger per op: layer self times %.3f ms + residual %.3f ms = untraced %.3f ms",
		self, l.opMs-self, l.opMs)
	r.note("tracing overhead: pipelined run %.3f ms traced vs %.3f untraced; request p50 %.3f ms traced vs %.3f untraced",
		l.pipeTraced, l.pipeUntraced, l.p50Traced, l.p50Untraced)
	return r
}

func overheadPct(traced, untraced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (traced/untraced - 1)
}

// memWindow measures GC pauses and allocation over an untraced window.
type memWindow struct{ before runtime.MemStats }

func startMemWindow() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// stop records the window's GC pause and allocation per operation.
func (w *memWindow) stop(l *layers, ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	if ops <= 0 {
		return
	}
	l.gcPauseMs = float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6 / float64(ops)
	l.allocMiB = float64(after.TotalAlloc-w.before.TotalAlloc) / (1 << 20) / float64(ops)
}
