package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/profile"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/testutil"
	"dswp/internal/workloads"
)

func TestGovernorAccounting(t *testing.T) {
	met := &Metrics{}
	g := newGovernor(1000, 0, met)
	if err := g.admit(600); err != nil {
		t.Fatalf("first admit: %v", err)
	}
	if err := g.admit(600); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("over-budget admit: got %v", err)
	}
	if err := g.admit(400); err != nil {
		t.Fatalf("exact-fit admit: %v", err)
	}
	g.release(600)
	g.release(400)
	if s := met.Snapshot(); s.InFlightBytes != 0 || s.InFlightBytesHW != 1000 ||
		s.ShedResource != 1 {
		t.Fatalf("after release: inflight=%d hw=%d shed=%d",
			s.InFlightBytes, s.InFlightBytesHW, s.ShedResource)
	}
}

func TestGovernorPerRequestCap(t *testing.T) {
	met := &Metrics{}
	g := newGovernor(0, 100, met)
	err := g.admit(101)
	var rtl *RequestTooLargeError
	if !errors.As(err, &rtl) {
		t.Fatalf("over-cap admit: got %v", err)
	}
	if rtl.Estimated != 101 || rtl.Limit != 100 {
		t.Fatalf("error detail: %+v", rtl)
	}
	// The per-request refusal reserved nothing.
	if met.Snapshot().InFlightBytes != 0 {
		t.Fatal("refused request left bytes reserved")
	}
	// With no caps at all, large admissions are accounted but never shed.
	g2 := newGovernor(0, 0, &Metrics{})
	if err := g2.admit(1 << 40); err != nil {
		t.Fatalf("uncapped admit: %v", err)
	}
	g2.release(1 << 40)
}

func TestEngineShedsOnResourceBudget(t *testing.T) {
	// One byte of budget: every run's estimate (>=64KB fixed overhead)
	// exceeds it, so admission must shed with the typed error.
	e := New(Options{Workers: 1, MaxInFlightBytes: 1})
	defer e.Shutdown(context.Background())
	_, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 16})
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("got %v, want ErrResourceExhausted", err)
	}
	if class := ErrorClass(err); class != "resource-exhausted" {
		t.Fatalf("class = %q", class)
	}
	s := e.Metrics().Snapshot()
	if s.ShedResource != 1 || s.InFlightBytes != 0 {
		t.Fatalf("shed=%d inflight=%d", s.ShedResource, s.InFlightBytes)
	}
}

func TestEngineRequestTooLarge(t *testing.T) {
	e := New(Options{Workers: 1, MaxRequestBytes: 1})
	defer e.Shutdown(context.Background())
	_, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 16})
	var rtl *RequestTooLargeError
	if !errors.As(err, &rtl) {
		t.Fatalf("got %v, want RequestTooLargeError", err)
	}
	if class := ErrorClass(err); class != "request-too-large" {
		t.Fatalf("class = %q", class)
	}
}

func TestEngineBytesReturnToZero(t *testing.T) {
	testutil.VerifyNone(t)
	e := New(Options{Workers: 2})
	defer e.Shutdown(context.Background())
	for i := 0; i < 4; i++ {
		if _, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 64}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if b := e.Metrics().Snapshot().InFlightBytes; b != 0 {
		t.Fatalf("in-flight bytes after quiesce = %d", b)
	}
	if hw := e.Metrics().Snapshot().InFlightBytesHW; hw <= 0 {
		t.Fatalf("high-water never moved (%d)", hw)
	}
}

// TestInjectedStallHonorsDeadline: inject_stall_us comes straight from
// the /run body, so an hour-long stall must not outlive its request. The
// caller gets its deadline error, the stalled stage wakes on the run's
// cancellation (so in-flight drops back to 0), and Shutdown returns
// within its own deadline. Every wait is
// bounded by a timer so a regression fails the test instead of hanging
// the package.
func TestInjectedStallHonorsDeadline(t *testing.T) {
	e := New(Options{Workers: 1, ReapAfter: 200 * time.Millisecond})
	errc := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), Request{Workload: "list-traversal",
			DeadlineMillis: 100, InjectStallUS: 3_600_000_000})
		errc <- err
	}()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("got %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the request outlived its 100ms deadline by 10s")
	}
	for give := time.Now().Add(5 * time.Second); e.Metrics().Snapshot().InFlight != 0; {
		if time.Now().After(give) {
			t.Fatalf("in_flight = %d 5s after the deadline: the stalled stage never woke",
				e.Metrics().Snapshot().InFlight)
		}
		time.Sleep(10 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown with a 2s deadline had not returned after 5s")
	}
}

func TestReaperKillsHungRun(t *testing.T) {
	testutil.VerifyNone(t)
	// A run stalling 2ms every 64 instructions over a long list runs for
	// seconds — far past the 100ms reap bound. The reaper must cancel it,
	// the request must fail with ErrReaped (class "reaped"; a canceled
	// attempt does not resume), and the engine must remain serviceable.
	e := New(Options{Workers: 1, ReapAfter: 100 * time.Millisecond,
		DefaultDeadline: 30 * time.Second})
	defer e.Shutdown(context.Background())
	start := time.Now()
	_, err := e.Run(context.Background(), Request{
		Workload: "list-traversal", N: 4096, InjectStallUS: 2000})
	if !errors.Is(err, ErrReaped) {
		t.Fatalf("got %v, want ErrReaped", err)
	}
	if class := ErrorClass(err); class != "reaped" {
		t.Fatalf("class = %q", class)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("reap took %s — the bound did not bite", d)
	}
	s := e.Metrics().Snapshot()
	if s.Reaped != 1 {
		t.Fatalf("reaped = %d, want 1", s.Reaped)
	}
	if s.Resumes != 0 {
		t.Fatalf("a reaped run resumed %d times", s.Resumes)
	}
	// The engine still serves after a reap.
	if _, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 64}); err != nil {
		t.Fatalf("run after reap: %v", err)
	}
	if w := e.Metrics().Snapshot().Window; w.Reaped60s != 1 {
		t.Fatalf("window reaped = %d", w.Reaped60s)
	}
}

func TestReaperLeavesFastRunsAlone(t *testing.T) {
	e := New(Options{Workers: 2, ReapAfter: 5 * time.Second})
	defer e.Shutdown(context.Background())
	for i := 0; i < 8; i++ {
		if _, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 64}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if s := e.Metrics().Snapshot(); s.Reaped != 0 {
		t.Fatalf("reaper killed %d healthy runs", s.Reaped)
	}
}

// TestEstimateCoversQueueAllocation: for every packed Table 1 pipeline,
// at capacities that do and do not fill a power of two, on both
// substrates, the governor's estimate must be at least what allocating
// the run's instance (queues, register files, retirement counts) takes
// from the heap. Packed queues hold capacity x packet width values and
// the ring rounds its buffer up, so charging NumQueues x capacity
// undercounts. The pipeline carries no program, so the estimate's
// memory-image term is zero and only queues, threads and the fixed
// overhead stand against the allocation.
func TestEstimateCoversQueueAllocation(t *testing.T) {
	for _, b := range workloads.Table1Suite() {
		prog := b.Build()
		prof, err := profile.Collect(prog.F, prog.Options())
		if err != nil {
			t.Fatalf("%s: profile: %v", b.Name, err)
		}
		tr, err := core.Apply(prog.F, prog.LoopHeader, prof,
			core.Config{SkipProfitability: true, PackFlows: true})
		if errors.Is(err, core.ErrSingleSCC) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: transform: %v", b.Name, err)
		}
		plan, err := rt.NewPlan(tr.Threads)
		if err != nil {
			t.Fatalf("%s: plan: %v", b.Name, err)
		}
		p := &pipeline{tr: tr, plan: plan}
		for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
			for _, qcap := range []int{0, 1000, 1025, 4097} {
				est := estimateBytes(p, kind, qcap)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				inst := plan.NewInstance(kind, qcap)
				runtime.ReadMemStats(&after)
				runtime.KeepAlive(inst)
				if alloc := int64(after.TotalAlloc - before.TotalAlloc); est < alloc {
					t.Errorf("%s %s cap %d: estimate %d bytes < instance allocation %d bytes",
						b.Name, kind, qcap, est, alloc)
				}
			}
		}
	}
}
