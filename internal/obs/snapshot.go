package obs

import "sync/atomic"

// MetricsSnapshot is a plain-value copy of a Metrics recorder, taken with
// atomic loads so it can be exported while pipelines are mid-run — the
// serving daemon's /metrics endpoint does exactly that. A snapshot is
// internally consistent in the sense the record path guarantees: every
// field is a value some atomic write published (no torn reads), totals
// are monotonic across successive snapshots, and per-queue Consumes can
// lead Produces by at most the one in-flight producer a SPSC queue
// permits (the producer bumps its counter after publishing the value, so
// the consumer may count a value first).
type MetricsSnapshot struct {
	Stages      []StageMetrics
	Queues      []QueueMetrics
	Dropped     int64
	Checkpoints int64
	Resumes     int64
}

func loadHist(dst, src *Hist) {
	for i := range src {
		dst[i] = atomic.LoadInt64(&src[i])
	}
}

// Snapshot copies every counter and histogram with atomic loads. It never
// pauses or locks the pipelines feeding the recorder; the cost is one
// atomic load per field.
func (m *Metrics) Snapshot() *MetricsSnapshot {
	s := &MetricsSnapshot{
		Stages:      make([]StageMetrics, len(m.stages)),
		Queues:      make([]QueueMetrics, len(m.queues)),
		Dropped:     atomic.LoadInt64(&m.dropped),
		Checkpoints: atomic.LoadInt64(&m.checkpoints),
		Resumes:     atomic.LoadInt64(&m.resumes),
	}
	for i := range m.stages {
		src, dst := &m.stages[i], &s.Stages[i]
		dst.Instrs = atomic.LoadInt64(&src.Instrs)
		dst.Produces = atomic.LoadInt64(&src.Produces)
		dst.Consumes = atomic.LoadInt64(&src.Consumes)
		dst.Branches = atomic.LoadInt64(&src.Branches)
		dst.TakenBr = atomic.LoadInt64(&src.TakenBr)
		dst.Iterations = atomic.LoadInt64(&src.Iterations)
		dst.StallFull = atomic.LoadInt64(&src.StallFull)
		dst.StallEmpty = atomic.LoadInt64(&src.StallEmpty)
		dst.StallFullTicks = atomic.LoadInt64(&src.StallFullTicks)
		dst.StallEmptyTicks = atomic.LoadInt64(&src.StallEmptyTicks)
		dst.StartTick = atomic.LoadInt64(&src.StartTick)
		dst.EndTick = atomic.LoadInt64(&src.EndTick)
		dst.FirstFlowTick = atomic.LoadInt64(&src.FirstFlowTick)
	}
	for q := range m.queues {
		src, dst := &m.queues[q], &s.Queues[q]
		// Counters bounded by Produces (Consumes, the OccHist total) load
		// before Produces: an earlier read can only be smaller, so the
		// snapshot keeps those bounds however far the stages run on
		// between loads.
		dst.Consumes = atomic.LoadInt64(&src.Consumes)
		loadHist(&dst.OccHist, &src.OccHist)
		dst.Produces = atomic.LoadInt64(&src.Produces)
		dst.HighWater = atomic.LoadInt64(&src.HighWater)
		dst.StallFull = atomic.LoadInt64(&src.StallFull)
		dst.StallFullTicks = atomic.LoadInt64(&src.StallFullTicks)
		dst.Cap = atomic.LoadInt64(&src.Cap)
		dst.StallEmpty = atomic.LoadInt64(&src.StallEmpty)
		dst.StallEmptyTicks = atomic.LoadInt64(&src.StallEmptyTicks)
		loadHist(&dst.BlockHist, &src.BlockHist)
	}
	return s
}

// TotalProduces and TotalConsumes sum the per-queue flow counters — quick
// aggregate gauges for dashboards.
func (s *MetricsSnapshot) TotalProduces() int64 {
	var n int64
	for q := range s.Queues {
		n += s.Queues[q].Produces
	}
	return n
}

func (s *MetricsSnapshot) TotalConsumes() int64 {
	var n int64
	for q := range s.Queues {
		n += s.Queues[q].Consumes
	}
	return n
}
