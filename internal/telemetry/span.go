// Package telemetry is the serving-grade observability plane over the
// pipeline-as-a-service engine: request-scoped span traces with tail
// sampling (tracer.go), a dependency-free Prometheus text-format encoder
// and linter (prom.go, promlint.go), per-workload cumulative series
// (registry.go), and fixed-size per-second windowed time-series
// (window.go).
//
// Where internal/obs instruments one pipeline *run* (stages, queues,
// stalls), this package instruments the *service* around it: how a
// request moved through admission, the compiled-pipeline cache, the warm
// instance pool, the supervised run, and any retries — and how that
// behavior distributes over workloads and over time. The windowed series
// are the live per-workload profile the ROADMAP's feedback-driven
// re-planner will consume.
//
// Overhead contract: everything here must be cheap enough to leave on in
// production serving. A nil *Tracer (telemetry disabled) costs one nil
// check per call site; an enabled-but-unsampled request costs a handful
// of monotonic clock reads, a pooled event buffer, and one ring-buffer
// decision at completion. The serve benchmark workload (perfbench) runs
// with tracing on, so its req_p50_ms carries this cost.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"time"

	"dswp/internal/obs"
)

// Attr is one key/value annotation on a span. Values are rendered with
// %v; keep them small (strings, ints, bools).
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation inside a request: admission wait, cache
// acquire, pool acquire, the supervised run, a retry, a bridged pipeline
// stage. Spans form a tree under the request's root. StartNS/EndNS are
// nanoseconds since the owning trace began (monotonic); EndNS == 0 means
// the span never ended (the request died inside it).
//
// Mutation happens only on the goroutine serving the request (the engine
// worker), before the trace is published to the tracer's ring; readers
// only ever see finished traces, so spans need no locking.
type Span struct {
	Name     string  `json:"name"`
	StartNS  int64   `json:"start_ns"`
	EndNS    int64   `json:"end_ns"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`
}

// Dur returns the span's duration; unfinished spans are clamped to end.
func (s *Span) Dur() time.Duration {
	if s == nil || s.EndNS < s.StartNS {
		return 0
	}
	return time.Duration(s.EndNS - s.StartNS)
}

// Attr appends one annotation. Nil-safe so call sites need no guards
// when tracing is disabled or the request is untraced.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
	return s
}

// child appends a new child span starting at startNS.
func (s *Span) child(name string, startNS int64) *Span {
	c := &Span{Name: name, StartNS: startNS}
	s.Children = append(s.Children, c)
	return c
}

// RequestTrace is one request's span tree plus its sampling disposition.
// It is mutated by exactly one goroutine until Finish publishes it; after
// that it is immutable, so the debug handlers read it without locks.
type RequestTrace struct {
	// ID is the request's unique id ("r00000042"), echoed to the client
	// in the response and the X-Request-ID header so a slow or errored
	// request can be fetched post-hoc from /debug/requests/{id}.
	ID string `json:"id"`
	// Workload names the requested workload.
	Workload string `json:"workload"`
	// Start is the wall-clock admission time.
	Start time.Time `json:"start"`
	// DurationUS is end-to-end latency in microseconds.
	DurationUS int64 `json:"duration_us"`
	// Error is the request's error string ("" = success); Class is its
	// taxonomy bucket ("deadlock", "stage-panic", ...; "" = success).
	Error string `json:"error,omitempty"`
	Class string `json:"class,omitempty"`
	// Kept explains why tail sampling retained this trace: "error",
	// "slow", or "sampled".
	Kept string `json:"kept,omitempty"`
	// Root is the span tree. Top-level children are the request phases
	// (admission, cache, pool-acquire, run, retry...).
	Root *Span `json:"root"`

	// start anchors the monotonic clock spans are stamped against.
	start time.Time
	// open tracks the innermost unfinished span per Begin/End nesting.
	stack []*Span
	// bridge buffers the run's obs events until Finish converts them
	// (kept traces) or recycles them (dropped traces).
	bridge *runBridge
	// finished guards against double Finish (e.g. a shed request whose
	// job is also failed during drain).
	finished bool
}

// now is nanoseconds since the trace began, from the monotonic clock.
func (t *RequestTrace) now() int64 { return int64(time.Since(t.start)) }

// Begin opens a span nested under the innermost open span (or the root).
// Nil-safe: a nil trace returns a nil span and every operation on it is
// a no-op, so the serving path reads linearly with tracing off.
func (t *RequestTrace) Begin(name string) *Span {
	if t == nil {
		return nil
	}
	parent := t.Root
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := parent.child(name, t.now())
	t.stack = append(t.stack, s)
	return s
}

// End closes the innermost open span (which must be sp; the argument
// exists to keep call sites honest and nil-safe).
func (t *RequestTrace) End(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.EndNS = t.now()
	for n := len(t.stack); n > 0; n-- {
		if t.stack[n-1] == sp {
			t.stack = t.stack[:n-1]
			return
		}
	}
}

// Event records an instantaneous marker as a zero-duration child of the
// innermost open span.
func (t *RequestTrace) Event(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	parent := t.Root
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	now := t.now()
	c := parent.child(name, now)
	c.EndNS = now
	c.Attrs = append(c.Attrs, attrs...)
}

// Summary is the /debug/requests listing entry for one retained trace.
type Summary struct {
	ID         string    `json:"id"`
	Workload   string    `json:"workload"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Class      string    `json:"class,omitempty"`
	Error      string    `json:"error,omitempty"`
	Kept       string    `json:"kept"`
	Spans      int       `json:"spans"`
}

func countSpans(s *Span) int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children {
		n += countSpans(c)
	}
	return n
}

// Summarize renders the listing entry.
func (t *RequestTrace) Summarize() Summary {
	return Summary{ID: t.ID, Workload: t.Workload, Start: t.Start,
		DurationUS: t.DurationUS, Class: t.Class, Error: t.Error,
		Kept: t.Kept, Spans: countSpans(t.Root)}
}

// WriteText renders the span tree as an indented plain-text report —
// the quick-look format /debug/requests/{id}?format=text serves.
func (t *RequestTrace) WriteText(w io.Writer) error {
	status := "ok"
	if t.Error != "" {
		status = t.Class + ": " + t.Error
	}
	if _, err := fmt.Fprintf(w, "request %s  workload=%s  dur=%s  kept=%s  %s\n",
		t.ID, t.Workload, time.Duration(t.DurationUS)*time.Microsecond, t.Kept, status); err != nil {
		return err
	}
	return writeSpanText(w, t.Root, 0)
}

func writeSpanText(w io.Writer, s *Span, depth int) error {
	var attrs strings.Builder
	for _, a := range s.Attrs {
		fmt.Fprintf(&attrs, " %s=%v", a.Key, a.Value)
	}
	end := "unfinished"
	if s.EndNS >= s.StartNS {
		end = s.Dur().String()
	}
	if _, err := fmt.Fprintf(w, "%s%-24s %12s @%-12s%s\n",
		strings.Repeat("  ", depth), s.Name, end,
		time.Duration(s.StartNS).String(), attrs.String()); err != nil {
		return err
	}
	for _, c := range s.Children {
		if err := writeSpanText(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome exports the trace in Chrome trace-event JSON through
// obs.WriteChromeEvents: one pid for the request, request-phase spans as
// X events on tid 0 and bridged pipeline stages on tid 1+stage.
func (t *RequestTrace) WriteChrome(w io.Writer) error {
	events := []obs.ChromeEvent{{Name: "process_name", Phase: "M", Pid: 1,
		Args: map[string]any{"name": fmt.Sprintf("request %s (%s)", t.ID, t.Workload)}}}
	var walk func(s *Span, tid int)
	walk = func(s *Span, tid int) {
		// Bridged stage spans carry their tid in the name ("stage 1");
		// everything else renders on the request track.
		id := tid
		if n, ok := stageTID(s.Name); ok {
			id = 1 + n
		}
		end := max(s.EndNS, s.StartNS)
		ev := obs.ChromeEvent{Name: s.Name, Phase: "X", Pid: 1, Tid: id,
			Ts: float64(s.StartNS) / 1e3, Dur: float64(end-s.StartNS) / 1e3}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = fmt.Sprint(a.Value)
			}
		}
		events = append(events, ev)
		for _, c := range s.Children {
			walk(c, id)
		}
	}
	walk(t.Root, 0)
	return obs.WriteChromeEvents(w, events)
}

// stageTID recognizes bridged stage span names ("stage 0", "stage 1", ...)
// so the Chrome export gives each pipeline stage its own track.
func stageTID(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "stage %d", &n); err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
