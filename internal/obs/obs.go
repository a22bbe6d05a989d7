// Package obs is the pipeline observability layer: a low-overhead
// instrumentation protocol (Recorder) fed by the goroutine runtime
// (internal/runtime) and the supervisor's recovery markers
// (internal/supervisor), concrete recorders that aggregate metrics (Metrics)
// or retain raw events in ring buffers (Trace), a Chrome trace-event JSON
// exporter viewable in Perfetto, a plain-text pipeline report, and the
// compile-time PassStats the DSWP transformation emits.
//
// The paper's argument rests on quantities this package makes visible: how
// well the load-balance heuristic splits the DAG_SCC (PassStats), how
// often synchronization-array queues run full or empty (QueueMetrics), and
// where pipeline fill/drain time goes (the report's fill/steady/drain
// breakdown).
//
// Overhead contract: execution engines hold a Recorder and guard every
// emission with a single nil check, so a disabled recorder costs one
// predictable branch per instrumented site and zero allocations. Engines
// emit only flow ops, stalls, branches, iterations, and stage boundaries —
// never per-ALU-instruction events.
package obs

// Kind discriminates instrumentation events.
type Kind uint8

const (
	// KProduce: a value entered a queue. Queue is set; Arg is the queue
	// occupancy immediately after the push.
	KProduce Kind = iota
	// KConsume: a value left a queue. Queue is set; Arg is the occupancy
	// immediately after the pop.
	KConsume
	// KStallFullBegin/KStallFullEnd bracket a produce blocked on a full
	// queue. The End event's Arg is the blocked duration in nanoseconds.
	KStallFullBegin
	KStallFullEnd
	// KStallEmptyBegin/KStallEmptyEnd bracket a consume blocked on an
	// empty queue. The End event's Arg is the blocked duration in
	// nanoseconds.
	KStallEmptyBegin
	KStallEmptyEnd
	// KBranch: a conditional branch retired. Arg is 1 when taken.
	KBranch
	// KIteration: the thread followed a loop back-edge (a transfer to a
	// block at or before the current one in layout order).
	KIteration
	// KStageStart/KStageDone bracket one pipeline stage's execution. The
	// Done event's Arg is the stage's retired instruction count.
	KStageStart
	KStageDone
	// KQueueCap declares a queue's capacity (Arg). The runtime emits it
	// once per queue before execution starts.
	KQueueCap
	// KCheckpoint: the pipeline committed an iteration-aligned checkpoint
	// while paused at an epoch barrier. Arg is the committed outer-loop
	// iteration index; Thread is the committing (last-arriving) stage.
	KCheckpoint
	// KResume: the supervisor resumed sequentially after a pipeline
	// failure. Arg is the checkpoint iteration resumed from (-1 = from
	// scratch).
	KResume
	// KDurableCommit: the supervisor wrote a checkpoint to the durable
	// store while the pipeline was paused at the epoch barrier. Arg is
	// the commit's wall-clock cost in microseconds — the fsync the
	// barrier absorbs, made visible to request traces. Thread is -1: the
	// commit belongs to the run, not to any one stage.
	KDurableCommit
)

func (k Kind) String() string {
	switch k {
	case KProduce:
		return "produce"
	case KConsume:
		return "consume"
	case KStallFullBegin:
		return "stall-full-begin"
	case KStallFullEnd:
		return "stall-full-end"
	case KStallEmptyBegin:
		return "stall-empty-begin"
	case KStallEmptyEnd:
		return "stall-empty-end"
	case KBranch:
		return "branch"
	case KIteration:
		return "iteration"
	case KStageStart:
		return "stage-start"
	case KStageDone:
		return "stage-done"
	case KQueueCap:
		return "queue-cap"
	case KCheckpoint:
		return "checkpoint"
	case KResume:
		return "resume"
	case KDurableCommit:
		return "durable-commit"
	}
	return "?"
}

// Event is one instrumentation record. When is nanoseconds since run
// start; every Tick and Ticks field of Metrics counts the same
// nanoseconds.
type Event struct {
	Kind   Kind
	Thread int32 // emitting stage, or -1 for a run-level event
	Queue  int32 // queue id, or -1 when not queue-related
	When   int64 // nanoseconds since run start
	Arg    int64 // kind-specific payload (see Kind docs)
}

// Recorder receives instrumentation events. Implementations must tolerate
// concurrent Record calls from multiple goroutines, with one exception
// engines guarantee: all events carrying the same Thread are emitted
// sequentially by that thread.
type Recorder interface {
	Record(Event)
}

// CoarseRecorder is optionally implemented by Recorders that do not
// need the per-value flow events (KProduce, KConsume, KBranch,
// KIteration). Engines check once at startup; a Recorder answering
// true is skipped at those four emission sites — which fire once per
// retired flow op, the dominant recorder-on cost — while still
// receiving every structural event (stage lifetimes, stall intervals,
// checkpoints, queue capacities). The serving tracer's run
// bridge uses this so enabled-but-unsampled tracing stays off the
// per-instruction hot path.
type CoarseRecorder interface {
	Recorder
	CoarseOnly() bool
}

// FineEvents reports whether rec wants the per-value flow events:
// false only for a CoarseRecorder that opts out.
func FineEvents(rec Recorder) bool {
	if c, ok := rec.(CoarseRecorder); ok {
		return !c.CoarseOnly()
	}
	return true
}

// Noop is a Recorder that discards everything. It exists to measure the
// cost of the interface dispatch itself; passing a nil Recorder to an
// engine is cheaper still (one nil check, no call).
type Noop struct{}

// Record implements Recorder.
func (Noop) Record(Event) {}

type multi []Recorder

func (m multi) Record(e Event) {
	for _, r := range m {
		r.Record(e)
	}
}

// Multi fans events out to several recorders (nil entries are dropped).
// Typical use: metrics and a trace from the same run.
func Multi(rs ...Recorder) Recorder {
	var out multi
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	if len(out) == 1 {
		return out[0]
	}
	return out
}
