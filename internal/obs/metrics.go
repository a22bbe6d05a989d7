package obs

import (
	"math/bits"
	"sync/atomic"
)

// HistBuckets is the number of logarithmic histogram buckets: bucket i
// counts values v with bit-length i (bucket 0 holds v == 0, bucket 1 holds
// v == 1, bucket 2 holds 2-3, bucket 3 holds 4-7, ..., the last bucket
// holds everything larger).
const HistBuckets = 24

// Hist is a power-of-two histogram over non-negative int64 samples.
type Hist [HistBuckets]int64

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	b := bits.Len64(uint64(v))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

func (h *Hist) add(v int64) { atomic.AddInt64(&h[histBucket(v)], 1) }

// Add records one sample atomically — the exported entry point for
// subsystems (like the serving engine's latency histograms) that keep
// their own Hist instances outside a Metrics recorder.
func (h *Hist) Add(v int64) { h.add(v) }

// Quantile returns the lower bound of the bucket containing the q-th
// quantile (0 < q <= 1) of the recorded samples, reading buckets
// atomically. With log2 buckets this is exact to within a factor of two —
// the resolution /metrics dashboards need. Returns 0 when empty.
func (h *Hist) Quantile(q float64) int64 {
	var counts [HistBuckets]int64
	var total int64
	for i := range h {
		counts[i] = atomic.LoadInt64(&h[i])
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var seen int64
	for i := range counts {
		seen += counts[i]
		if seen > rank {
			return BucketLow(i)
		}
	}
	return BucketLow(HistBuckets - 1)
}

// Total returns the number of recorded samples.
func (h *Hist) Total() int64 {
	var n int64
	for i := range h {
		n += h[i]
	}
	return n
}

// BucketLow returns the smallest value belonging to bucket i.
func BucketLow(i int) int64 {
	if i <= 0 {
		return 0
	}
	return 1 << (i - 1)
}

// BucketHigh returns the largest value belonging to bucket i (the
// inclusive upper bound a Prometheus `le` label wants). The last bucket
// holds everything larger, so callers should render it as +Inf.
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 0
	}
	return (1 << i) - 1
}

// QueueMetrics aggregates one synchronization-array queue's activity.
// All fields are updated atomically during the run; read them only after
// the run completes (or accept torn-but-monotonic snapshots).
//
// Field order is deliberate: a queue's hot counters are written from two
// different threads — the producer stage retires Produces/HighWater/
// StallFull*, the consumer stage retires Consumes/StallEmpty* — so each
// group gets its own cache line (64 bytes) to keep the two stages from
// ping-ponging one line between cores on every queue operation
// (BenchmarkMetricsFalseSharing measures the cost of not doing this).
// BlockHist is the one intentionally shared field: both sides record
// blocked durations into it, but only while stalled, when extra coherence
// traffic is free.
type QueueMetrics struct {
	// --- producer-stage line ---
	// Produces counts completed produce operations. On a clean run of
	// correct DSWP output Produces == Consumes: every produced value is
	// consumed and the queue drains.
	Produces int64
	// HighWater is the maximum occupancy observed immediately after any
	// produce.
	HighWater int64
	// StallFull counts producer blocking occurrences; StallFullTicks
	// accumulates the blocked durations (ns).
	StallFull, StallFullTicks int64
	// Cap is the queue capacity, from KQueueCap. Written once at
	// startup, so it can ride in the producer line.
	Cap int64
	_   [3]int64 // pad producer group to 64 bytes

	// --- consumer-stage line ---
	// Consumes counts completed consume operations.
	Consumes int64
	// StallEmpty counts consumer blocking occurrences; StallEmptyTicks
	// accumulates the blocked durations (ns).
	StallEmpty, StallEmptyTicks int64
	_                           [5]int64 // pad consumer group to 64 bytes

	// OccHist is a histogram of occupancy-after-produce samples
	// (producer-written); BlockHist is a histogram of blocked durations
	// (ns), full and empty merged (written by whichever side stalled).
	OccHist   Hist
	BlockHist Hist
}

// StageMetrics aggregates one pipeline stage (thread). Each stage's
// metrics are written by exactly one goroutine, but stages sit in one
// contiguous slice, so the struct is padded to a cache-line multiple
// (128 bytes) to keep neighbouring stages' hot counters off each other's
// lines.
type StageMetrics struct {
	// Instrs is the stage's retired instruction count, delivered with
	// KStageDone (engines do not emit per-instruction events).
	Instrs int64
	// Produces/Consumes/Branches/Iterations count those events.
	Produces, Consumes int64
	Branches, TakenBr  int64
	Iterations         int64
	// StallFull/StallEmpty count blocking occurrences charged to this
	// stage; the Ticks fields accumulate the blocked durations (ns).
	StallFull, StallEmpty           int64
	StallFullTicks, StallEmptyTicks int64
	// StartTick/EndTick bracket the stage's execution; FirstFlowTick is
	// the first completed produce or consume (used by the fill-time
	// estimate). Each is a run-relative nanosecond stamp stored as
	// tick+1, so zero means "never observed".
	StartTick, EndTick, FirstFlowTick int64
	_                                 [3]int64 // pad to 128 bytes (two cache lines)
}

// BlockedTicks is the stage's total queue-blocked time.
func (s *StageMetrics) BlockedTicks() int64 { return s.StallFullTicks + s.StallEmptyTicks }

// BusyTicks is lifetime minus blocked time (clamped at zero).
func (s *StageMetrics) BusyTicks() int64 {
	life := s.EndTick - s.StartTick
	if b := life - s.BlockedTicks(); b > 0 {
		return b
	}
	return 0
}

// Utilization is busy time over lifetime, in [0,1].
func (s *StageMetrics) Utilization() float64 {
	life := s.EndTick - s.StartTick
	if life <= 0 {
		return 0
	}
	return float64(s.BusyTicks()) / float64(life)
}

// Metrics is a Recorder that aggregates counters and histograms with
// fixed-size atomic storage: no allocation and no locking on the record
// path, safe under the goroutine runtime's true concurrency. It ignores
// run-level KDurableCommit events, which carry no stage or queue.
type Metrics struct {
	stages  []StageMetrics
	queues  []QueueMetrics
	dropped int64

	// Recovery counters (KCheckpoint/KResume from the supervisor and the
	// fault-tolerant runtime).
	checkpoints int64
	resumes     int64
}

// NewMetrics sizes a Metrics for a run of threads stages and queues
// queues. Events referencing out-of-range indices are counted in Dropped
// rather than recorded.
func NewMetrics(threads, queues int) *Metrics {
	if threads < 0 {
		threads = 0
	}
	if queues < 0 {
		queues = 0
	}
	return &Metrics{
		stages: make([]StageMetrics, threads),
		queues: make([]QueueMetrics, queues),
	}
}

// NumStages and NumQueues report the sized dimensions.
func (m *Metrics) NumStages() int { return len(m.stages) }
func (m *Metrics) NumQueues() int { return len(m.queues) }

// Stage returns stage i's metrics (valid after the run completes).
func (m *Metrics) Stage(i int) *StageMetrics { return &m.stages[i] }

// Queue returns queue q's metrics (valid after the run completes).
func (m *Metrics) Queue(q int) *QueueMetrics { return &m.queues[q] }

// Dropped counts events that referenced out-of-range stages or queues.
func (m *Metrics) Dropped() int64 { return atomic.LoadInt64(&m.dropped) }

// Checkpoints counts committed iteration-aligned checkpoints (KCheckpoint).
func (m *Metrics) Checkpoints() int64 { return atomic.LoadInt64(&m.checkpoints) }

// Resumes counts sequential resumes after pipeline failures (KResume).
func (m *Metrics) Resumes() int64 { return atomic.LoadInt64(&m.resumes) }

func atomicMax(p *int64, v int64) {
	for {
		old := atomic.LoadInt64(p)
		if v <= old || atomic.CompareAndSwapInt64(p, old, v) {
			return
		}
	}
}

// storeOnce sets *p to v+1 if it is still zero (tick fields use the +1
// encoding so tick 0 is representable).
func storeOnce(p *int64, v int64) {
	atomic.CompareAndSwapInt64(p, 0, v+1)
}

// Tick decodes a +1-encoded tick field: the stored value minus one, or -1
// when never observed.
func Tick(stored int64) int64 { return stored - 1 }

// Record implements Recorder.
func (m *Metrics) Record(e Event) {
	if e.Kind == KDurableCommit {
		return
	}
	var st *StageMetrics
	if int(e.Thread) >= 0 && int(e.Thread) < len(m.stages) {
		st = &m.stages[e.Thread]
	}
	var qm *QueueMetrics
	if e.Queue >= 0 {
		if int(e.Queue) < len(m.queues) {
			qm = &m.queues[e.Queue]
		} else {
			atomic.AddInt64(&m.dropped, 1)
			return
		}
	}
	if st == nil {
		atomic.AddInt64(&m.dropped, 1)
		return
	}

	switch e.Kind {
	case KProduce:
		atomic.AddInt64(&st.Produces, 1)
		storeOnce(&st.FirstFlowTick, e.When)
		if qm != nil {
			atomic.AddInt64(&qm.Produces, 1)
			atomicMax(&qm.HighWater, e.Arg)
			qm.OccHist.add(e.Arg)
		}
	case KConsume:
		atomic.AddInt64(&st.Consumes, 1)
		storeOnce(&st.FirstFlowTick, e.When)
		if qm != nil {
			atomic.AddInt64(&qm.Consumes, 1)
		}
	case KStallFullBegin, KStallEmptyBegin:
		// Durations are charged at the matching End; Begin events exist
		// for tracing.
	case KStallFullEnd:
		atomic.AddInt64(&st.StallFull, 1)
		atomic.AddInt64(&st.StallFullTicks, e.Arg)
		if qm != nil {
			atomic.AddInt64(&qm.StallFull, 1)
			atomic.AddInt64(&qm.StallFullTicks, e.Arg)
			qm.BlockHist.add(e.Arg)
		}
	case KStallEmptyEnd:
		atomic.AddInt64(&st.StallEmpty, 1)
		atomic.AddInt64(&st.StallEmptyTicks, e.Arg)
		if qm != nil {
			atomic.AddInt64(&qm.StallEmpty, 1)
			atomic.AddInt64(&qm.StallEmptyTicks, e.Arg)
			qm.BlockHist.add(e.Arg)
		}
	case KBranch:
		atomic.AddInt64(&st.Branches, 1)
		if e.Arg != 0 {
			atomic.AddInt64(&st.TakenBr, 1)
		}
	case KIteration:
		atomic.AddInt64(&st.Iterations, 1)
	case KStageStart:
		storeOnce(&st.StartTick, e.When)
	case KStageDone:
		atomic.StoreInt64(&st.EndTick, e.When+1)
		atomic.StoreInt64(&st.Instrs, e.Arg)
	case KQueueCap:
		if qm != nil {
			atomic.StoreInt64(&qm.Cap, e.Arg)
		}
	case KCheckpoint:
		atomic.AddInt64(&m.checkpoints, 1)
	case KResume:
		atomic.AddInt64(&m.resumes, 1)
	}
}

// CheckConsistency verifies the invariants a clean run must satisfy:
// every queue's produce count equals its consume count (all queues
// drained), and no events were dropped. It returns a list of violations,
// empty when consistent.
func (m *Metrics) CheckConsistency() []string {
	var bad []string
	for q := range m.queues {
		qm := &m.queues[q]
		if qm.Produces != qm.Consumes {
			bad = append(bad, queueMismatch(q, qm.Produces, qm.Consumes))
		}
	}
	if d := m.Dropped(); d > 0 {
		bad = append(bad, droppedMsg(d))
	}
	return bad
}
