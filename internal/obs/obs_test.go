package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestMetricsAggregation drives a synthetic two-stage run through Metrics
// and checks every counter lands where it should.
func TestMetricsAggregation(t *testing.T) {
	m := NewMetrics(2, 1)
	evs := []Event{
		{Kind: KQueueCap, Thread: 0, Queue: 0, Arg: 4},
		{Kind: KStageStart, Thread: 0, Queue: -1, When: 0},
		{Kind: KStageStart, Thread: 1, Queue: -1, When: 1},
		{Kind: KProduce, Thread: 0, Queue: 0, When: 5, Arg: 1},
		{Kind: KProduce, Thread: 0, Queue: 0, When: 6, Arg: 2},
		{Kind: KStallEmptyBegin, Thread: 1, Queue: 0, When: 3},
		{Kind: KStallEmptyEnd, Thread: 1, Queue: 0, When: 7, Arg: 4},
		{Kind: KConsume, Thread: 1, Queue: 0, When: 7, Arg: 1},
		{Kind: KConsume, Thread: 1, Queue: 0, When: 8, Arg: 0},
		{Kind: KBranch, Thread: 0, Queue: -1, When: 9, Arg: 1},
		{Kind: KIteration, Thread: 0, Queue: -1, When: 9},
		{Kind: KStageDone, Thread: 0, Queue: -1, When: 10, Arg: 42},
		{Kind: KStageDone, Thread: 1, Queue: -1, When: 12, Arg: 17},
	}
	for _, e := range evs {
		m.Record(e)
	}

	q := m.Queue(0)
	if q.Produces != 2 || q.Consumes != 2 {
		t.Errorf("queue produces/consumes = %d/%d, want 2/2", q.Produces, q.Consumes)
	}
	if q.Cap != 4 || q.HighWater != 2 {
		t.Errorf("cap/hwm = %d/%d, want 4/2", q.Cap, q.HighWater)
	}
	if q.StallEmpty != 1 || q.StallEmptyTicks != 4 {
		t.Errorf("stall-empty = %dx %d, want 1x 4", q.StallEmpty, q.StallEmptyTicks)
	}
	s0, s1 := m.Stage(0), m.Stage(1)
	if s0.Instrs != 42 || s1.Instrs != 17 {
		t.Errorf("instrs = %d/%d, want 42/17", s0.Instrs, s1.Instrs)
	}
	if s0.Produces != 2 || s1.Consumes != 2 {
		t.Errorf("stage flows = %d produces / %d consumes, want 2/2", s0.Produces, s1.Consumes)
	}
	if s0.Branches != 1 || s0.TakenBr != 1 || s0.Iterations != 1 {
		t.Errorf("branch/iter accounting wrong: %+v", s0)
	}
	if s1.StallEmptyTicks != 4 || s1.BlockedTicks() != 4 {
		t.Errorf("stage 1 blocked = %d, want 4", s1.BlockedTicks())
	}
	// Stage 1: start 1, end 12, blocked 4 -> busy 7, util 7/11.
	if s1.BusyTicks() != 7 {
		t.Errorf("stage 1 busy = %d, want 7", s1.BusyTicks())
	}
	if got := m.CheckConsistency(); len(got) != 0 {
		t.Errorf("consistency violations on a clean run: %v", got)
	}

	fd := ComputeFillDrain(m)
	// Starts 0,1; ends 10,12; last first-flow 7 -> total 12, fill 7,
	// drain 2, steady 3.
	if fd.Total != 12 || fd.Fill != 7 || fd.Drain != 2 || fd.Steady != 3 {
		t.Errorf("fill/drain = %+v, want total 12 fill 7 drain 2 steady 3", fd)
	}

	rep := FormatReport(m, []string{"prod", "cons"})
	for _, want := range []string{"prod", "cons", "fill/drain", "hwm/cap"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestMetricsConsistencyDetectsMismatch: an undrained queue must be
// flagged.
func TestMetricsConsistencyDetectsMismatch(t *testing.T) {
	m := NewMetrics(1, 1)
	m.Record(Event{Kind: KProduce, Thread: 0, Queue: 0, Arg: 1})
	bad := m.CheckConsistency()
	if len(bad) != 1 || !strings.Contains(bad[0], "1 produces vs 0 consumes") {
		t.Fatalf("CheckConsistency = %v, want produce/consume mismatch", bad)
	}
}

// TestMetricsDropsOutOfRange: events outside the sized dimensions are
// counted, not crashed on.
func TestMetricsDropsOutOfRange(t *testing.T) {
	m := NewMetrics(1, 1)
	m.Record(Event{Kind: KProduce, Thread: 5, Queue: 0})
	m.Record(Event{Kind: KProduce, Thread: 0, Queue: 9})
	if m.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", m.Dropped())
	}
	if len(m.CheckConsistency()) == 0 {
		t.Fatal("dropped events must fail the consistency check")
	}
}

// TestMetricsConcurrent hammers one Metrics from several goroutines under
// the race detector.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics(4, 2)
	var wg sync.WaitGroup
	for ti := 0; ti < 4; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.Record(Event{Kind: KProduce, Thread: int32(ti), Queue: int32(i % 2), When: int64(i), Arg: int64(i % 8)})
				m.Record(Event{Kind: KConsume, Thread: int32(ti), Queue: int32(i % 2), When: int64(i), Arg: 0})
			}
		}(ti)
	}
	wg.Wait()
	if got := m.Queue(0).Produces + m.Queue(1).Produces; got != 4000 {
		t.Fatalf("total produces = %d, want 4000", got)
	}
	if bad := m.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("unexpected inconsistency: %v", bad)
	}
}

// TestTraceRingWrap: the ring keeps the most recent capPerThread events.
func TestTraceRingWrap(t *testing.T) {
	tr := NewTrace(1, 4)
	for i := 0; i < 10; i++ {
		tr.Record(Event{Kind: KIteration, Thread: 0, When: int64(i)})
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.When != int64(6+i) {
			t.Fatalf("event %d When = %d, want %d (newest window)", i, e.When, 6+i)
		}
	}
	if tr.Lost() != 6 {
		t.Fatalf("lost = %d, want 6", tr.Lost())
	}
}

// TestTraceEventsMerged: events from several threads come back
// timestamp-ordered.
func TestTraceEventsMerged(t *testing.T) {
	tr := NewTrace(2, 8)
	tr.Record(Event{Kind: KIteration, Thread: 1, When: 5})
	tr.Record(Event{Kind: KIteration, Thread: 0, When: 3})
	tr.Record(Event{Kind: KIteration, Thread: 1, When: 1})
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].When < evs[i-1].When {
			t.Fatalf("events out of order: %v", evs)
		}
	}
}

// TestWriteChromeValidJSON exports a small trace and checks the result is
// a valid traceEvents JSON with a track per thread and per queue.
func TestWriteChromeValidJSON(t *testing.T) {
	tr := NewTrace(2, 64)
	evs := []Event{
		{Kind: KStageStart, Thread: 0, Queue: -1, When: 0},
		{Kind: KStageStart, Thread: 1, Queue: -1, When: 0},
		{Kind: KProduce, Thread: 0, Queue: 0, When: 2, Arg: 1},
		{Kind: KStallEmptyBegin, Thread: 1, Queue: 1, When: 1},
		{Kind: KStallEmptyEnd, Thread: 1, Queue: 1, When: 3, Arg: 2},
		{Kind: KConsume, Thread: 1, Queue: 0, When: 4, Arg: 0},
		{Kind: KBranch, Thread: 0, Queue: -1, When: 5, Arg: 1},
		{Kind: KStageDone, Thread: 0, Queue: -1, When: 6, Arg: 10},
		{Kind: KStageDone, Thread: 1, Queue: -1, When: 7, Arg: 12},
	}
	for _, e := range evs {
		tr.Record(e)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, []string{"producer", "consumer"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	threadTracks := map[int]bool{}
	queueTracks := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" && e.Name == "thread_name" {
			threadTracks[e.Tid] = true
		}
		if e.Phase == "C" {
			queueTracks[e.Name] = true
		}
	}
	if len(threadTracks) != 2 {
		t.Errorf("thread tracks = %v, want 2", threadTracks)
	}
	if !queueTracks["q0 occupancy"] {
		t.Errorf("missing q0 occupancy counter track; have %v", queueTracks)
	}
	// B/E pairs must balance per thread for Perfetto to nest spans.
	depth := map[int]int{}
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "B":
			depth[e.Tid]++
		case "E":
			depth[e.Tid]--
			if depth[e.Tid] < 0 {
				t.Fatalf("unbalanced E on tid %d", e.Tid)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d ends at span depth %d", tid, d)
		}
	}
}

// TestRunLevelEvents: a Thread -1 event (the supervisor's durable
// commit) is neither dropped by Trace nor counted as dropped by Metrics,
// and reaches the Chrome export as a global instant without a thread
// track of its own.
func TestRunLevelEvents(t *testing.T) {
	commit := Event{Kind: KDurableCommit, Thread: -1, Queue: -1, When: 2500, Arg: 40}
	tr, m := NewTrace(1, 4), NewMetrics(1, 0)
	rec := Multi(tr, m)
	rec.Record(Event{Kind: KStageStart, Thread: 0, Queue: -1, When: 1000})
	rec.Record(commit)
	rec.Record(Event{Kind: KStageDone, Thread: 0, Queue: -1, When: 3000, Arg: 9})
	if tr.Dropped() != 0 || m.Dropped() != 0 {
		t.Fatalf("dropped: trace %d, metrics %d, want 0", tr.Dropped(), m.Dropped())
	}
	if bad := m.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("CheckConsistency = %v", bad)
	}
	evs := tr.Events()
	if len(evs) != 3 || evs[1] != commit {
		t.Fatalf("events = %v, want the commit between start and done", evs)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, []string{"stage"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range doc.TraceEvents {
		if e.Name == "thread_name" && e.Tid < 0 {
			t.Errorf("run-level event got a thread track: %+v", e)
		}
		if e.Name == "durable-commit" {
			found = true
			if e.Scope != "g" || e.Ts != 2.5 {
				t.Errorf("durable-commit = %+v, want a global instant at 2.5us", e)
			}
		}
	}
	if !found {
		t.Fatalf("Chrome export has no durable-commit:\n%s", buf.String())
	}

	// Other out-of-range threads are still dropped.
	tr.Record(Event{Kind: KIteration, Thread: 7})
	if tr.Dropped() != 1 {
		t.Fatalf("thread 7: dropped = %d, want 1", tr.Dropped())
	}
}

// TestQueueStateFormat pins the shared deadlock-table format both engines
// print.
func TestQueueStateFormat(t *testing.T) {
	cases := []struct {
		q    QueueState
		want string
	}{
		{QueueState{Queue: 0, Len: 1, Cap: 1, Producers: []int{0}, Consumers: []int{1}},
			"q0=full 1/1 (prod [0], cons [1])"},
		{QueueState{Queue: 2, Len: 0, Cap: 8, Producers: []int{1}, Consumers: []int{0}},
			"q2=empty (prod [1], cons [0])"},
		{QueueState{Queue: 3, Len: 2, Cap: 8, Producers: []int{0}, Consumers: []int{1}},
			"q3=2/8 (prod [0], cons [1])"},
		{QueueState{Queue: 4, Len: 7, Cap: 0, Producers: []int{0}, Consumers: []int{1}},
			"q4=7 buffered (prod [0], cons [1])"},
	}
	for _, c := range cases {
		if got := c.q.String(); got != c.want {
			t.Errorf("QueueState = %q, want %q", got, c.want)
		}
	}
	table := FormatQueueTable([]QueueState{cases[0].q, cases[1].q})
	want := "queues: q0=full 1/1 (prod [0], cons [1]); q2=empty (prod [1], cons [0]);"
	if table != want {
		t.Errorf("table = %q, want %q", table, want)
	}
}

// TestHistBuckets pins the log2 bucketing.
func TestHistBuckets(t *testing.T) {
	for _, c := range []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4}, {1 << 40, HistBuckets - 1},
	} {
		if got := histBucket(c.v); got != c.want {
			t.Errorf("bucket(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	if BucketLow(0) != 0 || BucketLow(1) != 1 || BucketLow(3) != 4 {
		t.Error("BucketLow mapping wrong")
	}
}

// TestPassStatsString renders a populated and an analysis-only report.
func TestPassStatsString(t *testing.T) {
	s := &PassStats{
		Fn: "f", Loop: "header", LoopInstrs: 10, Arcs: 12,
		ArcsByKind: map[string]int{"data": 8, "control": 4}, CarriedArcs: 3,
		SCCs: 4, SCCSizes: []int{4, 3, 2, 1},
		Threads: 2, StageWeights: []int64{60, 40}, BalanceRatio: 1.2,
		Flows: 5, FlowsByKind: map[string]int{"data": 4, "control": 1},
		FlowsByPos: map[string]int{"loop": 3, "initial": 2},
		Queues:     5, RedundantFlowsEliminated: 2,
	}
	out := s.String()
	for _, want := range []string{"4 SCCs", "balance ratio 1.200", "control 1", "2 flows eliminated", "largest 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("PassStats report missing %q:\n%s", want, out)
		}
	}
	if s.LargestSCC() != 4 || s.TotalWeight() != 100 {
		t.Error("LargestSCC/TotalWeight wrong")
	}
	bail := &PassStats{Fn: "f", Loop: "h", SCCs: 1, SCCSizes: []int{9}, LoopInstrs: 9}
	if !strings.Contains(bail.String(), "analysis only") {
		t.Errorf("analysis-only report wrong:\n%s", bail.String())
	}
}

// TestMultiFansOut checks Multi dispatch and nil handling.
func TestMultiFansOut(t *testing.T) {
	m1, m2 := NewMetrics(1, 1), NewMetrics(1, 1)
	r := Multi(nil, m1, Noop{}, m2)
	r.Record(Event{Kind: KProduce, Thread: 0, Queue: 0, Arg: 1})
	if m1.Queue(0).Produces != 1 || m2.Queue(0).Produces != 1 {
		t.Fatal("Multi did not fan out")
	}
	if Multi() != nil || Multi(nil) != nil {
		t.Fatal("empty Multi must collapse to nil")
	}
	if got := Multi(m1); got != Recorder(m1) {
		t.Fatal("single-recorder Multi must collapse to the recorder")
	}
}
