package runtime

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/profile"
	"dswp/internal/workloads"
)

// pipelineFns builds the reference two-stage pipeline: a producer streaming
// 1..10 and a consumer summing them and sending the total back.
func pipelineFns(t *testing.T) []*ir.Function {
	t.Helper()
	prod := ir.MustParse(`func producer {
  liveout r9
entry:
    r1 = const 0
    r5 = const 10
    r6 = const 1
    jump loop
loop:
    r1 = add r1, r6
    produce [0] = r1
    r2 = cmplt r1, r5
    br r2, loop, done
done:
    consume r9 = [1]
    ret
}
`)
	cons := ir.MustParse(`func consumer {
entry:
    r1 = const 0
    r5 = const 10
    r6 = const 1
    r7 = const 0
    jump loop
loop:
    consume r2 = [0]
    r7 = add r7, r2
    r1 = add r1, r6
    r3 = cmplt r1, r5
    br r3, loop, done
done:
    produce [1] = r7
    ret
}
`)
	return []*ir.Function{prod, cons}
}

func TestRunPipelineAcrossCapacities(t *testing.T) {
	for _, cap := range []int{1, 2, 32} {
		res, err := Run(pipelineFns(t), Options{QueueCap: cap})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if got := res.LiveOuts[ir.Reg(9)]; got != 55 {
			t.Fatalf("cap %d: pipeline sum = %d, want 55", cap, got)
		}
	}
}

// TestRunMatchesInterpOnTransformedLoop pushes real DSWP output through
// both engines and diffs memory images and live-outs.
func TestRunMatchesInterpOnTransformedLoop(t *testing.T) {
	p := workloads.ListOfLists(40, 5)
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 2, 32} {
		res, err := Run(tr.Threads, Options{QueueCap: cap, Mem: p.Mem, Regs: p.Regs})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if d := base.Mem.Diff(res.Mem); d != -1 {
			t.Fatalf("cap %d: memory diverges at word %d", cap, d)
		}
		for r, v := range base.LiveOuts {
			if res.LiveOuts[r] != v {
				t.Fatalf("cap %d: live-out %s = %d, want %d", cap, r, res.LiveOuts[r], v)
			}
		}
	}
}

// TestDeadlockCyclicPartition is the acceptance case: an intentionally
// cyclic (invalid) partition must trip the watchdog with a structured
// DeadlockError instead of hanging.
func TestDeadlockCyclicPartition(t *testing.T) {
	a := ir.MustParse("func a {\nentry:\n    consume r1 = [0]\n    produce [1] = r1\n    ret\n}\n")
	b := ir.MustParse("func b {\nentry:\n    consume r1 = [1]\n    produce [0] = r1\n    ret\n}\n")
	_, err := Run([]*ir.Function{a, b}, Options{Timeout: 10 * time.Second})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if len(derr.Threads) != 2 {
		t.Fatalf("threads in report = %d, want 2", len(derr.Threads))
	}
	for _, th := range derr.Threads {
		if th.State != "blocked-empty" {
			t.Errorf("thread %d state = %q, want blocked-empty", th.Thread, th.State)
		}
	}
	if len(derr.Queues) != 2 {
		t.Fatalf("queues in report = %d, want 2", len(derr.Queues))
	}
	for _, q := range derr.Queues {
		if q.Len != 0 {
			t.Errorf("q%d len = %d, want 0", q.Queue, q.Len)
		}
		if len(q.Producers) != 1 || len(q.Consumers) != 1 {
			t.Errorf("q%d endpoints = prod %v cons %v, want one of each", q.Queue, q.Producers, q.Consumers)
		}
	}
}

// TestDeadlockFullQueue: a producer with no consumer wedges on a full
// bounded queue and is reported as blocked-full with occupancy. The
// producer loops (one produce per block visit) so the queue's configured
// capacity applies unscaled — see the packed-queue width scaling in build.
func TestDeadlockFullQueue(t *testing.T) {
	a := ir.MustParse(`func a {
entry:
    r1 = const 7
    jump loop
loop:
    produce [0] = r1
    jump loop
}
`)
	_, err := Run([]*ir.Function{a}, Options{QueueCap: 1})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if got := derr.Threads[0].State; got != "blocked-full" {
		t.Fatalf("state = %q, want blocked-full", got)
	}
	if q := derr.Queues[0]; q.Len != 1 || q.Cap != 1 {
		t.Fatalf("queue occupancy = %d/%d, want 1/1", q.Len, q.Cap)
	}
}

func spinLoop() *ir.Function {
	return ir.MustParse(`func spin {
entry:
    r1 = const 0
    r2 = const 1
    jump loop
loop:
    r1 = add r1, r2
    jump loop
}
`)
}

// TestTimeoutWallClockStall: a thread that spins forever (never blocked on
// a queue) is converted into a TimeoutError by the wall-clock bound.
func TestTimeoutWallClockStall(t *testing.T) {
	_, err := Run([]*ir.Function{spinLoop()}, Options{Timeout: 100 * time.Millisecond})
	var terr *TimeoutError
	if !errors.As(err, &terr) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if terr.Steps == 0 {
		t.Error("timeout report shows zero retired instructions for a spinning thread")
	}
	if len(terr.Threads) != 1 || terr.Threads[0].State != "running" {
		t.Errorf("threads = %+v, want one running thread", terr.Threads)
	}
}

func TestStepLimit(t *testing.T) {
	_, err := Run([]*ir.Function{spinLoop()}, Options{MaxSteps: 10_000})
	var serr *StepLimitError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *StepLimitError", err)
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	a := RandomFaults(42, 3, 8)
	b := RandomFaults(42, 3, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault plans differ for the same seed:\n%+v\n%+v", a, b)
	}
}

// TestRandomFaultsPinned pins the plans three seeds draw, so `dswpsim
// -faults N` and every seeded sweep keep reproducing the same schedule:
// the delayed queues, their delay and period, the capacity override, and
// the stalled thread.
func TestRandomFaultsPinned(t *testing.T) {
	us := time.Microsecond
	sleep := func(d time.Duration, every int64) failpoint.Policy {
		return failpoint.Policy{Action: failpoint.ActSleep, Sleep: d, Every: every}
	}
	for _, c := range []struct {
		seed   uint64
		nt, nq int
		want   *FaultPlan
	}{
		{1, 2, 3, &FaultPlan{Seed: 1,
			Queue:    map[int]failpoint.Policy{1: sleep(43*us, 797), 2: sleep(41*us, 797)},
			Thread:   map[int]failpoint.Policy{},
			QueueCap: map[int]int{}}},
		{42, 3, 8, &FaultPlan{Seed: 42,
			Queue:    map[int]failpoint.Policy{1: sleep(62*us, 701), 6: sleep(62*us, 701)},
			Thread:   map[int]failpoint.Policy{1: sleep(31*us, 2283)},
			QueueCap: map[int]int{}}},
		{20250806, 4, 12, &FaultPlan{Seed: 20250806,
			Queue:    map[int]failpoint.Policy{1: sleep(31*us, 870)},
			Thread:   map[int]failpoint.Policy{1: sleep(83*us, 3935)},
			QueueCap: map[int]int{5: 1}}},
	} {
		if got := RandomFaults(c.seed, c.nt, c.nq); !reflect.DeepEqual(got, c.want) {
			t.Errorf("seed %d: got %+v, want %+v", c.seed, got, c.want)
		}
	}
}

// TestFaultInjectionPreservesResults: faults change timing, never values.
func TestFaultInjectionPreservesResults(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		plan := RandomFaults(seed, 2, 2)
		res, err := Run(pipelineFns(t), Options{QueueCap: 2, Faults: plan})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.LiveOuts[ir.Reg(9)]; got != 55 {
			t.Fatalf("seed %d: pipeline sum = %d, want 55", seed, got)
		}
	}
}

// TestTraceRecording: the concurrent runtime produces per-thread traces the
// timing model can replay, with Steps consistent with the trace length.
func TestTraceRecording(t *testing.T) {
	res, err := Run(pipelineFns(t), Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, th := range res.Threads {
		if th.Steps == 0 || int64(len(th.Trace)) != th.Steps {
			t.Fatalf("thread %d: Steps %d, len(Trace) %d", i, th.Steps, len(th.Trace))
		}
	}
}
