package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dswp/internal/obs"
)

// Defaults for TraceOptions zero values.
const (
	// DefaultTraceCapacity bounds retained request traces: the tail
	// sampler's ring holds this many before overwriting the oldest.
	DefaultTraceCapacity = 256
	// DefaultEventCap bounds bridged obs events retained per pipeline
	// stage per request. 512 events cover the full steady-state tail of
	// every suite workload at the serving parameters; longer runs keep
	// their most recent window, like obs.Trace does.
	DefaultEventCap = 512
	// DefaultSlowThreshold is the tail-sampling latency cutoff: requests
	// at or above it are always retained.
	DefaultSlowThreshold = 50 * time.Millisecond
	// DefaultSampleRate is the probability an ordinary (fast, successful)
	// request is retained anyway, keeping the ring representative.
	DefaultSampleRate = 0.01
)

// TraceOptions configures a Tracer. The zero value enables tracing with
// the defaults above; Disable turns the whole plane off (the engine then
// carries a nil *Tracer and every call site costs one nil check).
type TraceOptions struct {
	// Disable turns request tracing off entirely.
	Disable bool
	// Capacity bounds retained traces (0 = DefaultTraceCapacity).
	Capacity int
	// EventCap bounds bridged run events per stage (0 = DefaultEventCap).
	EventCap int
	// SlowThreshold retains every request at least this slow
	// (0 = DefaultSlowThreshold; <0 disables the slow rule).
	SlowThreshold time.Duration
	// SampleRate retains ordinary requests with this probability
	// (0 = DefaultSampleRate; <0 never samples ordinary requests —
	// the "enabled-unsampled" benchmark configuration).
	SampleRate float64
	// Seed seeds the sampling RNG (0 = fixed default; sampling is
	// deterministic for tests either way).
	Seed uint64
}

func (o TraceOptions) withDefaults() TraceOptions {
	if o.Capacity <= 0 {
		o.Capacity = DefaultTraceCapacity
	}
	if o.EventCap <= 0 {
		o.EventCap = DefaultEventCap
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = DefaultSlowThreshold
	}
	if o.SampleRate == 0 {
		o.SampleRate = DefaultSampleRate
	}
	if o.Seed == 0 {
		o.Seed = 0x9e3779b97f4a7c15
	}
	return o
}

// TracerStats reports the tracer's lifetime counters. The prom and help
// tags name each field's Prometheus family, as on the engine snapshot.
type TracerStats struct {
	Started int64 `json:"started" prom:"dswp_traces_started_total" help:"Request traces started."`
	// Kept breaks retained traces down by tail-sampling reason.
	KeptError   int64 `json:"kept_error" prom:"dswp_traces_kept_total,reason=error" help:"Traces retained by tail sampling, by reason."`
	KeptSlow    int64 `json:"kept_slow" prom:"dswp_traces_kept_total,reason=slow"`
	KeptSampled int64 `json:"kept_sampled" prom:"dswp_traces_kept_total,reason=sampled"`
	Dropped     int64 `json:"dropped" prom:"dswp_traces_dropped_total" help:"Traces discarded by tail sampling."`
	// Retained is the current ring occupancy (<= capacity).
	Retained int `json:"retained" prom:"dswp_traces_retained" help:"Traces currently held in the bounded ring."`
	Capacity int `json:"capacity" prom:"dswp_trace_capacity" help:"Trace ring capacity."`
}

// Tracer owns request traces: it mints them at admission, receives them
// back at completion, and applies tail sampling — keep every errored
// request, keep every slow request, keep a small random fraction of the
// rest — into a bounded ring indexed by request id. Memory is bounded by
// Capacity traces regardless of traffic.
type Tracer struct {
	opts TraceOptions
	seq  atomic.Int64
	rng  atomic.Uint64

	started, dropped            atomic.Int64
	keptErr, keptSlow, keptSamp atomic.Int64

	mu   sync.Mutex
	ring []*RequestTrace // circular; next points at the next overwrite slot
	next int
	byID map[string]*RequestTrace

	// bridges recycles run-event buffers: an unsampled request's bridge
	// never reaches a reader, so its slab goes back in the pool.
	bridges sync.Pool
}

// NewTracer builds a Tracer, or returns nil when opts.Disable is set —
// every method on a nil Tracer is a cheap no-op.
func NewTracer(opts TraceOptions) *Tracer {
	if opts.Disable {
		return nil
	}
	opts = opts.withDefaults()
	t := &Tracer{opts: opts,
		ring: make([]*RequestTrace, opts.Capacity),
		byID: make(map[string]*RequestTrace, opts.Capacity)}
	t.rng.Store(opts.Seed)
	return t
}

// Start mints a trace for one request. Returns nil (a no-op trace) on a
// nil tracer.
func (t *Tracer) Start(workload string) *RequestTrace {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	now := time.Now()
	return &RequestTrace{
		ID:       fmt.Sprintf("r%08d", t.seq.Add(1)),
		Workload: workload,
		Start:    now,
		start:    now,
		Root:     &Span{Name: "request"},
	}
}

// Finish completes a trace and applies the tail-sampling decision.
// err/class describe the request's outcome ("" = success). Safe to call
// twice (the second call is a no-op) and on a nil tracer or trace.
func (t *Tracer) Finish(tr *RequestTrace, errMsg, class string) {
	if t == nil || tr == nil || tr.finished {
		return
	}
	tr.finished = true
	end := tr.now()
	tr.Root.EndNS = end
	tr.DurationUS = end / 1e3
	tr.Error = errMsg
	tr.Class = class
	tr.stack = nil

	switch {
	case errMsg != "":
		tr.Kept = "error"
		t.keptErr.Add(1)
	case t.opts.SlowThreshold > 0 && end >= int64(t.opts.SlowThreshold):
		tr.Kept = "slow"
		t.keptSlow.Add(1)
	case t.opts.SampleRate > 0 && t.rand() < t.opts.SampleRate:
		tr.Kept = "sampled"
		t.keptSamp.Add(1)
	default:
		t.dropped.Add(1)
		t.recycle(tr.bridge)
		tr.bridge = nil
		return
	}

	// Kept: materialize the bridged run events into spans, then recycle
	// the event buffer either way — retained traces hold spans, never
	// raw event slabs.
	if tr.bridge != nil {
		tr.bridge.materialize(tr)
		t.recycle(tr.bridge)
		tr.bridge = nil
	}

	t.mu.Lock()
	if old := t.ring[t.next]; old != nil {
		delete(t.byID, old.ID)
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.byID[tr.ID] = tr
	t.mu.Unlock()
}

// rand is a lock-free xorshift64* uniform draw in [0,1).
func (t *Tracer) rand() float64 {
	for {
		old := t.rng.Load()
		x := old
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		if t.rng.CompareAndSwap(old, x) {
			return float64(x*0x2545f4914f6cdd1d>>11) / float64(1<<53)
		}
	}
}

// Get returns a retained trace by id, or nil.
func (t *Tracer) Get(id string) *RequestTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id]
}

// List returns summaries of every retained trace, newest first.
func (t *Tracer) List() []Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Summary, 0, len(t.byID))
	// Walk the ring backwards from the most recent insertion.
	for i := 0; i < len(t.ring); i++ {
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if tr := t.ring[idx]; tr != nil {
			out = append(out, tr.Summarize())
		}
	}
	return out
}

// Stats reports the tracer's sampling counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	retained := len(t.byID)
	t.mu.Unlock()
	return TracerStats{
		Started:     t.started.Load(),
		KeptError:   t.keptErr.Load(),
		KeptSlow:    t.keptSlow.Load(),
		KeptSampled: t.keptSamp.Load(),
		Dropped:     t.dropped.Load(),
		Retained:    retained,
		Capacity:    t.opts.Capacity,
	}
}

// Retained reports the current ring occupancy (test hook for the
// bounded-memory contract).
func (t *Tracer) Retained() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// RunRecorder arms tr with a bounded obs.Recorder bridging the pipeline
// run's events (stage boundaries, stalls, checkpoints, resume)
// into the trace. threads sizes the per-stage rings. labels, when it has
// one entry per thread, overrides the default "stage N" span names — the
// replicated-pipeline path passes "stage N rK" so each replica gets its
// own span while staying on its stage's export track. Returns nil — not a
// typed-nil interface — when tracing is off or the trace is nil, so the
// runtime's one-nil-check contract holds.
func (t *Tracer) RunRecorder(tr *RequestTrace, threads int, labels ...string) obs.Recorder {
	if t == nil || tr == nil || threads <= 0 {
		return nil
	}
	b, _ := t.bridges.Get().(*runBridge)
	if b == nil {
		b = &runBridge{}
	}
	b.reset(threads, t.opts.EventCap)
	if len(labels) == threads {
		b.labels = append(b.labels[:0], labels...)
	}
	tr.bridge = b
	return b
}

func (t *Tracer) recycle(b *runBridge) {
	if b != nil {
		t.bridges.Put(b)
	}
}

// runBridge buffers a run's obs events in per-stage rings (single writer
// per stage, like obs.Trace) until the tail-sampling decision. Bounded:
// each stage keeps its most recent capPerThread events.
type runBridge struct {
	rings []obs.Ring
	// labels overrides per-thread span names when non-empty (replicated
	// pipelines name spans "stage N rK").
	labels  []string
	dropped atomic.Int64
	// Durable-commit stamps arrive from whichever thread drove the epoch
	// commit — possibly concurrent with another thread's own emissions
	// during teardown — so they cannot share a per-thread ring.
	mu      sync.Mutex
	commits []obs.Event
}

func (b *runBridge) reset(threads, capPerThread int) {
	if cap(b.rings) < threads {
		b.rings = make([]obs.Ring, threads)
	}
	b.rings = b.rings[:threads]
	b.labels = b.labels[:0]
	for i := range b.rings {
		b.rings[i].Reset(capPerThread)
	}
	b.mu.Lock()
	b.commits = b.commits[:0]
	b.mu.Unlock()
	b.dropped.Store(0)
}

// CoarseOnly opts the bridge out of per-value flow events (produce/
// consume/branch/iteration): the runtime skips those emission sites —
// and their per-op clock reads — entirely, which is what keeps
// enabled-but-unsampled tracing within a few percent of the untraced
// serving path. Structural events still arrive.
func (b *runBridge) CoarseOnly() bool { return true }

// Record implements obs.Recorder. The hot path is one bounds check, one
// store, one increment — the cost every enabled-but-unsampled pipelined
// request pays per event.
func (b *runBridge) Record(e obs.Event) {
	if e.Kind == obs.KDurableCommit {
		// Cross-thread emitter (see the commits field): never the hot
		// path — one commit per checkpoint epoch, not per value.
		b.mu.Lock()
		b.commits = append(b.commits, e)
		b.mu.Unlock()
		return
	}
	ti := int(e.Thread)
	if ti < 0 || ti >= len(b.rings) {
		b.dropped.Add(1)
		return
	}
	b.rings[ti].Add(e)
}

// materialize converts the buffered events into spans under tr's run
// span: one span per pipeline stage (its lifetime), stall intervals as
// child spans, and checkpoint/durable-commit/resume markers as
// zero-duration events.
// Event timestamps are nanoseconds since the run began, offset onto the
// run span's own start.
func (b *runBridge) materialize(tr *RequestTrace) {
	run := findSpan(tr.Root, "run")
	if run == nil {
		run = tr.Root
	}
	base := run.StartNS
	for ti := range b.rings {
		r := &b.rings[ti]
		evs := r.Events()
		if len(evs) == 0 {
			continue
		}
		name := fmt.Sprintf("stage %d", ti)
		if ti < len(b.labels) && b.labels[ti] != "" {
			name = b.labels[ti]
		}
		st := run.child(name, base)
		st.EndNS, st.track = base, 1+ti
		var open *Span // current stall span
		for _, e := range evs {
			ts := base + e.When
			switch e.Kind {
			case obs.KStageStart:
				st.StartNS = ts
			case obs.KStageDone:
				st.EndNS = ts
				st.Attr("instrs", e.Arg)
			case obs.KStallFullBegin, obs.KStallEmptyBegin:
				kind := "stall-full"
				if e.Kind == obs.KStallEmptyBegin {
					kind = "stall-empty"
				}
				open = st.child(fmt.Sprintf("%s q%d", kind, e.Queue), ts)
			case obs.KStallFullEnd, obs.KStallEmptyEnd:
				if open != nil {
					open.EndNS = ts
					open = nil
				}
			case obs.KCheckpoint:
				c := st.child("checkpoint", ts)
				c.EndNS = ts
				c.Attr("iteration", e.Arg)
			case obs.KResume:
				c := st.child("sequential-resume", ts)
				c.EndNS = ts
				c.Attr("from_iteration", e.Arg)
			}
			if ts > st.EndNS {
				st.EndNS = ts
			}
		}
		if lost := r.Lost(); lost > 0 {
			st.Attr("events_lost", lost)
		}
	}
	// Durable commits are run-level markers: they describe the request's
	// durability timeline, not any one stage's execution.
	b.mu.Lock()
	commits := b.commits
	b.mu.Unlock()
	for _, e := range commits {
		c := run.child("durable-commit", base+e.When)
		c.EndNS = base + e.When
		c.Attr("micros", e.Arg)
	}
	if d := b.dropped.Load(); d > 0 {
		run.Attr("bridge_dropped", d)
	}
}

func findSpan(s *Span, name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}
