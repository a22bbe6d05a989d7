package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// DefaultRingCap is the per-thread event ring capacity: large enough to
// hold the steady-state tail of any workload in the suite, small enough
// that tracing a million-iteration loop stays bounded.
const DefaultRingCap = 1 << 16

// Ring is a single-writer event ring: the owning thread appends, nobody
// reads until the run completes. When full it overwrites the oldest
// events, keeping the most recent window. Trace keeps one per thread;
// the serving tracer's run bridge keeps one per stage and pools them
// across runs.
type Ring struct {
	buf []Event
	n   uint64 // total events ever written
}

// Reset empties the ring and sizes it for capacity events, reusing the
// buffer when its size already matches.
func (r *Ring) Reset(capacity int) {
	if len(r.buf) != capacity {
		r.buf = make([]Event, capacity)
	}
	r.n = 0
}

// Add appends e, overwriting the oldest event when the ring is full.
func (r *Ring) Add(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// Lost reports how many events wrap-around overwrote.
func (r *Ring) Lost() int64 {
	if c := uint64(len(r.buf)); r.n > c {
		return int64(r.n - c)
	}
	return 0
}

// Events returns the retained events in emission order.
func (r *Ring) Events() []Event {
	c := uint64(len(r.buf))
	if r.n <= c {
		return r.buf[:r.n]
	}
	out := make([]Event, c)
	start := r.n % c
	copy(out, r.buf[start:])
	copy(out[c-start:], r.buf[:start])
	return out
}

// Trace is a Recorder retaining raw events in per-thread ring buffers.
// Engines emit each thread's events from that thread only, so every ring
// has a single writer and the record path takes no lock. Run-level events
// (Thread -1, such as KDurableCommit) come from whichever thread drove
// them, so they go to one mutex-guarded list instead; they are rare (one
// per checkpoint epoch). Events from other out-of-range threads are
// dropped (counted).
type Trace struct {
	rings   []Ring
	dropped int64

	mu  sync.Mutex
	run []Event
}

// NewTrace sizes a trace for threads threads with capPerThread retained
// events each (<=0 uses DefaultRingCap).
func NewTrace(threads, capPerThread int) *Trace {
	if capPerThread <= 0 {
		capPerThread = DefaultRingCap
	}
	if threads < 0 {
		threads = 0
	}
	t := &Trace{rings: make([]Ring, threads)}
	for i := range t.rings {
		t.rings[i].Reset(capPerThread)
	}
	return t
}

// Dropped counts events from out-of-range threads other than -1.
func (t *Trace) Dropped() int64 { return atomic.LoadInt64(&t.dropped) }

// Lost reports how many events were overwritten by ring wrap-around.
func (t *Trace) Lost() int64 {
	var lost int64
	for i := range t.rings {
		lost += t.rings[i].Lost()
	}
	return lost
}

// Record implements Recorder.
func (t *Trace) Record(e Event) {
	if e.Thread == -1 {
		t.mu.Lock()
		t.run = append(t.run, e)
		t.mu.Unlock()
		return
	}
	if int(e.Thread) < 0 || int(e.Thread) >= len(t.rings) {
		atomic.AddInt64(&t.dropped, 1)
		return
	}
	t.rings[e.Thread].Add(e)
}

// Events returns all retained events merged across threads and the
// run-level list, ordered by timestamp (ties broken by thread).
func (t *Trace) Events() []Event {
	t.mu.Lock()
	out := append([]Event(nil), t.run...)
	t.mu.Unlock()
	for i := range t.rings {
		out = append(out, t.rings[i].Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		return out[i].Thread < out[j].Thread
	})
	return out
}

// ChromeEvent is one entry of the Chrome trace-event format's JSON Array
// (the subset Perfetto ingests: B/E duration events, X complete events
// with a Dur, i instants, C counters, M metadata). Ts and Dur are in
// microseconds.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeEvents encodes events as one Chrome trace-event JSON
// document ({"traceEvents": [...]}). It is the only Chrome-trace encoder:
// pipeline traces (Trace.WriteChrome) and request traces
// (telemetry.RequestTrace.WriteChrome) both build ChromeEvents and write
// them here.
func WriteChromeEvents(w io.Writer, events []ChromeEvent) error {
	if _, err := io.WriteString(w, "{\"traceEvents\": [\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	for i, ce := range events {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if err := enc.Encode(ce); err != nil { // Encode appends the newline separator
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// Process ids in the exported trace: threads render under one process,
// queue occupancy counters under another, so Perfetto shows one track per
// thread and one counter track per queue.
const (
	chromePidThreads = 1
	chromePidQueues  = 2
)

// WriteChrome exports the trace as Chrome trace-event JSON:
// {"traceEvents": [...]}. threadNames labels the per-thread tracks (index
// = thread id; missing entries fall back to "threadN"). Each queue
// renders as a counter track named "qN occupancy" fed by the
// occupancy-after-op samples carried on produce/consume events. Stall
// intervals render as B/E spans on the blocked thread's track; produces,
// consumes, branches, and iterations render as instants; run-level
// markers (durable commits) as global instants. Event times are
// nanoseconds, exported as microseconds.
func (t *Trace) WriteChrome(w io.Writer, threadNames []string) error {
	events := t.Events()
	name := func(ti int) string {
		if ti < len(threadNames) && threadNames[ti] != "" {
			return threadNames[ti]
		}
		return fmt.Sprintf("thread%d", ti)
	}
	var out []ChromeEvent
	emit := func(ce ChromeEvent) { out = append(out, ce) }

	// Metadata: name the two processes and every thread track.
	emit(ChromeEvent{Name: "process_name", Phase: "M", Pid: chromePidThreads,
		Args: map[string]any{"name": "pipeline stages"}})
	emit(ChromeEvent{Name: "process_name", Phase: "M", Pid: chromePidQueues,
		Args: map[string]any{"name": "synchronization array"}})
	seenThreads := map[int]bool{}
	for _, e := range events {
		ti := int(e.Thread)
		if ti >= 0 && !seenThreads[ti] {
			seenThreads[ti] = true
			emit(ChromeEvent{Name: "thread_name", Phase: "M",
				Pid: chromePidThreads, Tid: ti,
				Args: map[string]any{"name": fmt.Sprintf("stage %d: %s", ti, name(ti))}})
		}
	}

	for _, e := range events {
		ts := float64(e.When) * 0.001
		ti := int(e.Thread)
		var ce ChromeEvent
		switch e.Kind {
		case KProduce, KConsume:
			op := "produce"
			if e.Kind == KConsume {
				op = "consume"
			}
			ce = ChromeEvent{Name: fmt.Sprintf("%s q%d", op, e.Queue), Phase: "i",
				Ts: ts, Pid: chromePidThreads, Tid: ti, Scope: "t",
				Args: map[string]any{"queue": e.Queue, "occupancy": e.Arg}}
			emit(ce)
			// The same sample feeds the queue's counter track.
			ce = ChromeEvent{Name: fmt.Sprintf("q%d occupancy", e.Queue), Phase: "C",
				Ts: ts, Pid: chromePidQueues, Tid: int(e.Queue),
				Args: map[string]any{"occupancy": e.Arg}}
		case KStallFullBegin:
			ce = ChromeEvent{Name: fmt.Sprintf("stall-full q%d", e.Queue), Phase: "B",
				Ts: ts, Pid: chromePidThreads, Tid: ti}
		case KStallEmptyBegin:
			ce = ChromeEvent{Name: fmt.Sprintf("stall-empty q%d", e.Queue), Phase: "B",
				Ts: ts, Pid: chromePidThreads, Tid: ti}
		case KStallFullEnd:
			ce = ChromeEvent{Name: fmt.Sprintf("stall-full q%d", e.Queue), Phase: "E",
				Ts: ts, Pid: chromePidThreads, Tid: ti}
		case KStallEmptyEnd:
			ce = ChromeEvent{Name: fmt.Sprintf("stall-empty q%d", e.Queue), Phase: "E",
				Ts: ts, Pid: chromePidThreads, Tid: ti}
		case KBranch:
			ce = ChromeEvent{Name: "branch", Phase: "i", Ts: ts,
				Pid: chromePidThreads, Tid: ti, Scope: "t",
				Args: map[string]any{"taken": e.Arg != 0}}
		case KIteration:
			ce = ChromeEvent{Name: "iteration", Phase: "i", Ts: ts,
				Pid: chromePidThreads, Tid: ti, Scope: "t"}
		case KStageStart:
			ce = ChromeEvent{Name: "stage", Phase: "B", Ts: ts,
				Pid: chromePidThreads, Tid: ti}
		case KStageDone:
			ce = ChromeEvent{Name: "stage", Phase: "E", Ts: ts,
				Pid: chromePidThreads, Tid: ti,
				Args: map[string]any{"instrs": e.Arg}}
		case KQueueCap:
			ce = ChromeEvent{Name: fmt.Sprintf("q%d capacity", e.Queue), Phase: "C",
				Ts: ts, Pid: chromePidQueues, Tid: int(e.Queue),
				Args: map[string]any{"cap": e.Arg}}
		case KCheckpoint:
			ce = ChromeEvent{Name: "checkpoint", Phase: "i", Ts: ts,
				Pid: chromePidThreads, Tid: ti, Scope: "g",
				Args: map[string]any{"iteration": e.Arg}}
		case KResume:
			ce = ChromeEvent{Name: "sequential-resume", Phase: "i", Ts: ts,
				Pid: chromePidThreads, Tid: ti, Scope: "g",
				Args: map[string]any{"from_iteration": e.Arg}}
		case KDurableCommit:
			ce = ChromeEvent{Name: "durable-commit", Phase: "i", Ts: ts,
				Pid: chromePidThreads, Tid: ti, Scope: "g",
				Args: map[string]any{"micros": e.Arg}}
		default:
			continue
		}
		emit(ce)
	}
	return WriteChromeEvents(w, out)
}
