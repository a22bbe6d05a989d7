package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dswp/internal/obs"
	"dswp/internal/testutil"
)

// TestTailSamplingRules pins the keep/drop decision: errors always kept,
// slow requests always kept, ordinary requests kept only by the random
// rule — and each disablement knob works.
func TestTailSamplingRules(t *testing.T) {
	// Errors are kept even with every other rule disabled.
	tr1 := NewTracer(TraceOptions{SampleRate: -1, SlowThreshold: -1})
	a := tr1.Start("wl")
	tr1.Finish(a, "boom", "stage-panic")
	if a.Kept != "error" || tr1.Get(a.ID) == nil {
		t.Fatalf("errored trace not kept: kept=%q", a.Kept)
	}

	// Slow requests are kept: a 1ns threshold makes everything slow.
	tr2 := NewTracer(TraceOptions{SampleRate: -1, SlowThreshold: 1})
	b := tr2.Start("wl")
	tr2.Finish(b, "", "")
	if b.Kept != "slow" || tr2.Get(b.ID) == nil {
		t.Fatalf("slow trace not kept: kept=%q", b.Kept)
	}

	// SampleRate 1 keeps every ordinary request.
	tr3 := NewTracer(TraceOptions{SampleRate: 1, SlowThreshold: -1})
	c := tr3.Start("wl")
	tr3.Finish(c, "", "")
	if c.Kept != "sampled" || tr3.Get(c.ID) == nil {
		t.Fatalf("sampled trace not kept: kept=%q", c.Kept)
	}

	// Both rules off: ordinary requests are dropped, errors still kept.
	tr4 := NewTracer(TraceOptions{SampleRate: -1, SlowThreshold: -1})
	d := tr4.Start("wl")
	tr4.Finish(d, "", "")
	if d.Kept != "" || tr4.Get(d.ID) != nil {
		t.Fatalf("unsampled trace kept: kept=%q", d.Kept)
	}
	s := tr4.Stats()
	if s.Started != 1 || s.Dropped != 1 || s.Retained != 0 {
		t.Fatalf("stats = %+v", s)
	}

	// A fractional rate keeps roughly that fraction (deterministic seed).
	tr5 := NewTracer(TraceOptions{SampleRate: 0.5, SlowThreshold: -1, Capacity: 4096})
	for i := 0; i < 1000; i++ {
		tr5.Finish(tr5.Start("wl"), "", "")
	}
	kept := tr5.Stats().KeptSampled
	if kept < 300 || kept > 700 {
		t.Fatalf("SampleRate 0.5 kept %d of 1000", kept)
	}
}

// TestTracerBoundedRing pins the memory bound: the ring never holds more
// than Capacity traces, evicting oldest-first, and Get drops evicted ids.
func TestTracerBoundedRing(t *testing.T) {
	testutil.VerifyNone(t)
	tr := NewTracer(TraceOptions{Capacity: 4, SampleRate: 1, SlowThreshold: -1})
	var ids []string
	for i := 0; i < 10; i++ {
		x := tr.Start("wl")
		tr.Finish(x, "", "")
		ids = append(ids, x.ID)
	}
	if got := tr.Retained(); got != 4 {
		t.Fatalf("Retained = %d, want 4 (capacity)", got)
	}
	for _, id := range ids[:6] {
		if tr.Get(id) != nil {
			t.Fatalf("evicted trace %s still retrievable", id)
		}
	}
	for _, id := range ids[6:] {
		if tr.Get(id) == nil {
			t.Fatalf("recent trace %s not retrievable", id)
		}
	}
	// List is newest first.
	l := tr.List()
	if len(l) != 4 || l[0].ID != ids[9] || l[3].ID != ids[6] {
		t.Fatalf("List order wrong: %+v", l)
	}
	if s := tr.Stats(); s.Capacity != 4 || s.Retained != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestTracerFinishIdempotent: the second Finish (e.g. a drained job also
// observed by its caller) must not double-count or re-file.
func TestTracerFinishIdempotent(t *testing.T) {
	tr := NewTracer(TraceOptions{SampleRate: 1, SlowThreshold: -1})
	a := tr.Start("wl")
	tr.Finish(a, "", "")
	tr.Finish(a, "late error", "internal")
	if a.Error != "" || tr.Stats().Started != 1 || tr.Retained() != 1 {
		t.Fatalf("double Finish mutated the trace: %+v %+v", a, tr.Stats())
	}
}

// TestNilTracerSafe: a disabled plane (nil tracer, nil trace, nil spans)
// must be inert at every call site the engine uses.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr != NewTracer(TraceOptions{Disable: true}) {
		t.Fatal("Disable should return a nil tracer")
	}
	x := tr.Start("wl") // nil trace
	sp := x.Begin("admission")
	sp.Attr("k", 1)
	x.End(sp)
	x.Event("marker")
	tr.Finish(x, "", "")
	if tr.Get("r00000001") != nil || tr.List() != nil || tr.Retained() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	if rec := tr.RunRecorder(x, 2); rec != nil {
		t.Fatalf("RunRecorder on nil tracer = %#v, want untyped nil", rec)
	}
}

// TestRunBridgeMaterialize feeds a synthetic pipelined run through the
// bridge and checks the span tree: per-stage spans under "run", stall
// intervals and checkpoint markers as children, and coarse-only opt-out.
func TestRunBridgeMaterialize(t *testing.T) {
	tr := NewTracer(TraceOptions{SampleRate: 1, SlowThreshold: -1})
	x := tr.Start("wl")
	run := x.Begin("run")
	rec := tr.RunRecorder(x, 2)
	if rec == nil {
		t.Fatal("RunRecorder returned nil with tracing on")
	}
	if !obs.FineEvents(obs.Recorder(&obs.Trace{})) {
		t.Fatal("a plain Recorder must receive fine events")
	}
	if obs.FineEvents(rec) {
		t.Fatal("the bridge must opt out of per-value flow events")
	}

	us := func(d time.Duration) int64 { return int64(d) }
	rec.Record(obs.Event{Kind: obs.KStageStart, Thread: 0, When: us(time.Microsecond)})
	rec.Record(obs.Event{Kind: obs.KStallEmptyBegin, Thread: 0, Queue: 3, When: us(2 * time.Microsecond)})
	rec.Record(obs.Event{Kind: obs.KStallEmptyEnd, Thread: 0, Queue: 3, When: us(5 * time.Microsecond)})
	rec.Record(obs.Event{Kind: obs.KCheckpoint, Thread: 0, When: us(6 * time.Microsecond), Arg: 64})
	rec.Record(obs.Event{Kind: obs.KDurableCommit, Thread: 0, When: us(7 * time.Microsecond), Arg: 120})
	rec.Record(obs.Event{Kind: obs.KStageDone, Thread: 0, When: us(8 * time.Microsecond), Arg: 999})
	rec.Record(obs.Event{Kind: obs.KStageStart, Thread: 1, When: us(time.Microsecond)})
	rec.Record(obs.Event{Kind: obs.KStageDone, Thread: 1, When: us(9 * time.Microsecond)})
	// Out-of-range thread: counted as dropped, not a panic.
	rec.Record(obs.Event{Kind: obs.KStageStart, Thread: 7})

	x.End(run)
	tr.Finish(x, "", "")
	if tr.Get(x.ID) == nil {
		t.Fatal("trace not retained")
	}

	var names []string
	for _, c := range run.Children {
		names = append(names, c.Name)
	}
	// Durable commits are run-level children (they arrive from whichever
	// thread drove the epoch commit, not a fixed stage).
	if len(run.Children) != 3 || names[0] != "stage 0" || names[1] != "stage 1" ||
		names[2] != "durable-commit" {
		t.Fatalf("run children = %v, want [stage 0, stage 1, durable-commit]", names)
	}
	st0 := run.Children[0]
	var kinds []string
	for _, c := range st0.Children {
		kinds = append(kinds, c.Name)
	}
	for _, want := range []string{"stall-empty q3", "checkpoint"} {
		found := false
		for _, k := range kinds {
			if k == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("stage 0 children %v missing %q", kinds, want)
		}
	}
	if st0.Children[0].Dur() != 3*time.Microsecond {
		t.Fatalf("stall span duration = %s, want 3µs", st0.Children[0].Dur())
	}
	// The dropped out-of-range event surfaces as an attr on the run span.
	found := false
	for _, a := range run.Attrs {
		if a.Key == "bridge_dropped" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bridge_dropped attr missing: %+v", run.Attrs)
	}
}

// TestRunBridgeEventCapBounded: a run emitting far more events than
// EventCap keeps only the most recent window and flags the loss.
func TestRunBridgeEventCapBounded(t *testing.T) {
	tr := NewTracer(TraceOptions{SampleRate: 1, SlowThreshold: -1, EventCap: 8})
	x := tr.Start("wl")
	run := x.Begin("run")
	rec := tr.RunRecorder(x, 1)
	for i := 0; i < 100; i++ {
		rec.Record(obs.Event{Kind: obs.KCheckpoint, Thread: 0, When: int64(i), Arg: int64(i)})
	}
	x.End(run)
	tr.Finish(x, "", "")
	st := run.Children[0]
	if len(st.Children) != 8 {
		t.Fatalf("stage retained %d events, want 8 (EventCap)", len(st.Children))
	}
	lost := false
	for _, a := range st.Attrs {
		if a.Key == "events_lost" {
			lost = true
		}
	}
	if !lost {
		t.Fatalf("events_lost attr missing: %+v", st.Attrs)
	}
}

// TestTraceExports renders one trace as text and Chrome JSON.
func TestTraceExports(t *testing.T) {
	tr := NewTracer(TraceOptions{SampleRate: 1, SlowThreshold: -1})
	x := tr.Start("181.mcf")
	adm := x.Begin("admission")
	adm.Attr("queue_depth", 3)
	x.End(adm)
	run := x.Begin("run")
	rec := tr.RunRecorder(x, 2)
	rec.Record(obs.Event{Kind: obs.KStageStart, Thread: 0, When: 10})
	rec.Record(obs.Event{Kind: obs.KStageDone, Thread: 0, When: 20})
	x.End(run)
	tr.Finish(x, "", "")

	var txt bytes.Buffer
	if err := x.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"request r", "workload=181.mcf", "admission", "queue_depth=3", "stage 0"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var chrome bytes.Buffer
	if err := x.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, chrome.String())
	}
	// Bridged stage spans must land on their own track (tid 1+thread).
	stageTid := -1.0
	for _, ev := range doc.TraceEvents {
		if ev["name"] == "stage 0" {
			stageTid, _ = ev["tid"].(float64)
		}
	}
	if stageTid != 1 {
		t.Fatalf("stage 0 tid = %v, want 1", stageTid)
	}
}

// TestChromeReplicaTracks exports a replicated pipeline's trace: each
// replica of the replicated stage must get its own Chrome track, or their
// overlapping spans would share one tid without nesting.
func TestChromeReplicaTracks(t *testing.T) {
	tr := NewTracer(TraceOptions{SampleRate: 1, SlowThreshold: -1})
	x := tr.Start("29.compress")
	run := x.Begin("run")
	labels := []string{"stage 0", "stage 1 r0", "stage 1 r1", "stage 2"}
	rec := tr.RunRecorder(x, len(labels), labels...)
	for ti := range labels {
		// Every thread runs over the same interval, so the replicas'
		// spans overlap.
		rec.Record(obs.Event{Kind: obs.KStageStart, Thread: int32(ti), When: 10})
		rec.Record(obs.Event{Kind: obs.KStageDone, Thread: int32(ti), When: 20})
	}
	x.End(run)
	tr.Finish(x, "", "")

	var chrome bytes.Buffer
	if err := x.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Tid  float64 `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome export is not valid JSON: %v\n%s", err, chrome.String())
	}
	tids := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		tids[ev.Name] = ev.Tid
	}
	for ti, name := range labels {
		if got, want := tids[name], float64(1+ti); got != want {
			t.Errorf("%q: tid %v, want %v (all tids: %v)", name, got, want, tids)
		}
	}
}

// TestPromEncoderLintsClean round-trips every family shape through the
// builder and the linter.
func TestPromEncoderLintsClean(t *testing.T) {
	p := NewProm()
	p.Counter("t_requests_total", "Requests.", Sample{Value: 42})
	p.Counter("t_by_class_total", "By class.",
		Sample{Labels: []Label{L("class", "deadline")}, Value: 1},
		Sample{Labels: []Label{L("class", `we"ird\`)}, Value: 2},
		Sample{Labels: []Label{L("class", "tab\tbrace}\nnl\\n")}, Value: 3})
	p.Gauge("t_inflight", "In flight.", Sample{Value: 3})
	var h SumHist
	for _, v := range []int64{1, 5, 9000, 1 << 40} {
		h.Add(v)
	}
	p.Histogram("t_latency_us", "Latency.", h.Snapshot(L("path", "total")))
	out := p.String()

	if problems := LintProm(out); len(problems) > 0 {
		t.Fatalf("linter rejected builder output: %v\n%s", problems, out)
	}
	lines := strings.Split(out, "\n")
	for _, want := range []string{
		"# HELP t_requests_total Requests.",
		"# TYPE t_requests_total counter",
		"t_requests_total 42",
		`t_by_class_total{class="deadline"} 1`,
		`t_by_class_total{class="we\"ird\\"} 2`,
		"t_by_class_total{class=\"tab\tbrace}\\nnl\\\\n\"} 3",
		`t_latency_us_bucket{path="total",le="+Inf"} 4`,
		`t_latency_us_sum{path="total"} ` + fmt.Sprint(1+5+9000+(int64(1)<<40)),
		`t_latency_us_count{path="total"} 4`,
	} {
		if !slices.Contains(lines, want) {
			t.Fatalf("exposition has no line %q:\n%s", want, out)
		}
	}
	// Each label value reads back as it was written.
	got := map[float64]string{}
	for _, line := range lines {
		if strings.HasPrefix(line, "t_by_class_total{") {
			_, labels, v, err := parseSample(line)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			got[v] = labels["class"]
		}
	}
	for v, want := range map[float64]string{1: "deadline", 2: `we"ird\`, 3: "tab\tbrace}\nnl\\n"} {
		if got[v] != want {
			t.Errorf("label of sample %v reads back %q, want %q", v, got[v], want)
		}
	}
}

// TestPromLintCatchesViolations plants one violation per linter rule and
// requires each to be flagged — the linter is the CI gate, so it must
// actually bite.
func TestPromLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name, text, wantSub string
	}{
		{"missing HELP",
			"# TYPE x counter\nx 1\n", "HELP"},
		{"missing TYPE",
			"# HELP x h\nx 1\n", "TYPE"},
		{"duplicate TYPE",
			"# HELP x h\n# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"},
		{"duplicate series",
			"# HELP x h\n# TYPE x counter\nx{a=\"b\"} 1\nx{a=\"b\"} 2\n", "duplicate"},
		{"non-cumulative buckets",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
			"cumulative"},
		{"missing +Inf",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n", "+Inf"},
		{"count mismatch",
			"# HELP h h\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 7\n", "count"},
	}
	for _, c := range cases {
		problems := LintProm(c.text)
		hit := false
		for _, pr := range problems {
			if strings.Contains(pr, c.wantSub) {
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s: linter missed it (got %v)", c.name, problems)
		}
	}
}

// TestWindowAggregation drives the per-second ring with an injected
// clock: rates over each horizon, error classes, quantiles, and the
// fixed memory bound across a wrap.
func TestWindowAggregation(t *testing.T) {
	now := time.Unix(1_000_000, 0)
	w := NewWindow(60)
	w.now = func() time.Time { return now }

	// Second 0: 10 successes at 100us, occupancy up to 5.
	for i := 0; i < 10; i++ {
		w.Observe("", 100, int64(i%6))
	}
	// Second 1: 5 successes at 1000us + 5 deadline errors + a breaker trip.
	now = now.Add(time.Second)
	for i := 0; i < 5; i++ {
		w.Observe("", 1000, 0)
		w.Observe("deadline", 5000, 0)
	}
	w.ObserveBreaker()

	snap := w.Snapshot(true)
	if snap.Seconds != 60 {
		t.Fatalf("Seconds = %d", snap.Seconds)
	}
	if snap.Rate1s != 10 { // only the current second counts at 1s horizon
		t.Fatalf("Rate1s = %v, want 10", snap.Rate1s)
	}
	if got := snap.Rate60s; got != 20.0/60 {
		t.Fatalf("Rate60s = %v, want %v", got, 20.0/60)
	}
	if snap.ErrorRate60s != 5.0/20 {
		t.Fatalf("ErrorRate60s = %v, want 0.25", snap.ErrorRate60s)
	}
	if snap.ErrorsByClass60s["deadline"] != 5 {
		t.Fatalf("ErrorsByClass60s = %v", snap.ErrorsByClass60s)
	}
	if snap.OccupancyHW60s != 5 || snap.BreakerTransitions60s != 1 {
		t.Fatalf("occ=%d breaker=%d", snap.OccupancyHW60s, snap.BreakerTransitions60s)
	}
	// p50 over 60s: 10 samples at 100us, 5 at 1000us -> p50 in the 100us
	// bucket (log2 resolution: lower bound 64).
	if snap.P50US60s != obs.BucketLow(7) {
		t.Fatalf("P50US60s = %d, want %d", snap.P50US60s, obs.BucketLow(7))
	}
	if len(snap.Series) != 2 || snap.Series[0].Unix >= snap.Series[1].Unix {
		t.Fatalf("series = %+v", snap.Series)
	}

	// Wrap: 200 more seconds of traffic through a 60-slot ring must leave
	// exactly <= 60 live slots and evict the old seconds.
	for i := 0; i < 200; i++ {
		now = now.Add(time.Second)
		w.Observe("", 50, 0)
	}
	snap = w.Snapshot(true)
	if len(snap.Series) > 60 {
		t.Fatalf("series grew past the ring: %d slots", len(snap.Series))
	}
	if snap.Rate60s != 1 {
		t.Fatalf("steady-state Rate60s = %v, want 1", snap.Rate60s)
	}
	// includeSeries=false omits the series but keeps headlines.
	lite := w.Snapshot(false)
	if lite.Series != nil || lite.Rate60s != 1 {
		t.Fatalf("headline snapshot wrong: %+v", lite)
	}
}
