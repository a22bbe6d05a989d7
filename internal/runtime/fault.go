package runtime

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dswp/internal/failpoint"
	"dswp/internal/queue"
	"dswp/internal/workloads"
)

// FaultPlan describes deterministic (seed-derived) faults to inject into a
// concurrent run as failpoint policies evaluated at run-scoped sites: this
// run's queues and threads. A correct DSWP transformation must produce
// identical results under any plan: faults change timing, never values —
// and when a fault is unrecoverable (an error action, or a panic), the
// failure is a typed error the supervisor recovers from, never a wrong
// result.
type FaultPlan struct {
	// Seed identifies the plan for reproduction in logs.
	Seed uint64
	// Queue carries one policy per faulted queue. Each end of the queue
	// evaluates its own copy once per value it offers or asks for, so
	// both ends see the same trigger sequence and a fault lands on the
	// same value index whichever end reaches it first. A sleep delays the
	// operation; an error fails the run with *QueueFaultError before the
	// value moves; a panic becomes a *StageFailure.
	Queue map[int]failpoint.Policy
	// Thread carries one policy per faulted thread, its hits counted in
	// retired instructions: sleep(d):every(n) stalls the thread, panic
	// with nth(N) kills it at exactly its N-th instruction, packed flow
	// instructions included (each retires on its own).
	Thread map[int]failpoint.Policy
	// QueueCap overrides individual queue capacities (e.g. forcing a
	// single queue down to one slot while the rest keep the default).
	QueueCap map[int]int
}

// RandomFaults derives a reproducible fault plan from seed for a pipeline
// with the given thread and queue counts: a couple of delayed queues, an
// occasional forced thread stall, and sometimes an artificially tiny queue.
func RandomFaults(seed uint64, numThreads, numQueues int) *FaultPlan {
	// Periods and delays are sized so that even million-step workloads
	// absorb only tens of milliseconds of injected latency per run while
	// schedules still shear by thousands of instructions relative to the
	// unfaulted interleaving.
	rng := workloads.NewRNG(seed | 1)
	plan := &FaultPlan{Seed: seed, Queue: map[int]failpoint.Policy{},
		Thread: map[int]failpoint.Policy{}, QueueCap: map[int]int{}}
	every := int64(256 + rng.Index(768))
	if numQueues > 0 {
		for i, n := 0, 1+rng.Index(2); i < n; i++ {
			q := rng.Index(numQueues)
			plan.Queue[q] = failpoint.Policy{Action: failpoint.ActSleep,
				Sleep: time.Duration(10+rng.Index(90)) * time.Microsecond, Every: every}
		}
		if rng.Index(2) == 0 {
			plan.QueueCap[rng.Index(numQueues)] = 1
		}
	}
	if numThreads > 0 && rng.Index(2) == 0 {
		plan.Thread[rng.Index(numThreads)] = failpoint.Policy{Action: failpoint.ActSleep,
			Every: int64(2048 + rng.Index(6144)),
			Sleep: time.Duration(20+rng.Index(80)) * time.Microsecond}
	}
	return plan
}

// faultQueue is a queue with a run-scoped policy at each end. Each value
// is evaluated once, by the TryProduce or TryConsume that first offers
// (or asks for) it; a value admitted but not moved is owed to the
// blocking call the runtime always makes next. An error refuses its
// value, and the blocking call that follows finds nothing owed and fails
// the run instead of moving it: the fault lands on the same value index
// on every schedule and never delivers or drops a value.
type faultQueue struct {
	queue.Queue
	e          *engine
	q          int
	prod, cons faultEnd
}

// faultEnd is one end of a faulted queue.
type faultEnd struct {
	ev      *failpoint.Eval
	threads []int        // the end's threads; a fault is charged to the first
	owed    atomic.Int64 // admitted values not yet moved
}

// faultQueue wraps queue q in its policy.
func (e *engine) faultQueue(q int, qu queue.Queue, pol failpoint.Policy) *faultQueue {
	f := &faultQueue{Queue: qu, e: e, q: q}
	f.prod.ev, f.prod.threads = failpoint.NewEval(pol), e.plan.prods[q]
	f.cons.ev, f.cons.threads = failpoint.NewEval(pol), e.plan.cons[q]
	return f
}

// admit evaluates the next value at one end: false when an error fired
// on it.
func (f *faultQueue) admit(end *faultEnd) bool {
	return !end.ev.Hit() || end.ev.Act(f.e.ctx,
		fmt.Sprintf("injected fault: thread %d queue %d", end.threads[0], f.q)) == nil
}

// block lets an owed value through; with none owed, the value is the
// faulted one and the run fails.
func (f *faultQueue) block(end *faultEnd) bool {
	if end.owed.Add(-1) >= 0 {
		return true
	}
	f.e.fail(&QueueFaultError{Thread: end.threads[0], Queue: f.q})
	return false
}

func (f *faultQueue) TryProduce(v int64) bool {
	if !f.admit(&f.prod) {
		return false
	}
	ok := f.Queue.TryProduce(v)
	if !ok {
		f.prod.owed.Add(1)
	}
	return ok
}

func (f *faultQueue) TryConsume() (int64, bool) {
	if !f.admit(&f.cons) {
		return 0, false
	}
	v, ok := f.Queue.TryConsume()
	if !ok {
		f.cons.owed.Add(1)
	}
	return v, ok
}

func (f *faultQueue) Produce(v int64, done <-chan struct{}) bool {
	return f.block(&f.prod) && f.Queue.Produce(v, done)
}

func (f *faultQueue) Consume(done <-chan struct{}) (int64, bool) {
	if !f.block(&f.cons) {
		return 0, false
	}
	return f.Queue.Consume(done)
}

// nextFault is the retired-instruction count at which thread ti's policy
// next triggers after step after (math.MaxInt64 when it never does).
func (e *engine) nextFault(ti int, after int64) int64 {
	if ev := e.threads[ti].fault; ev != nil {
		return ev.Next(after, e.maxSteps)
	}
	return math.MaxInt64
}

// threadFault performs thread ti's triggered policy once its retired
// count reached the trigger point, after flushing its step count: a sleep
// that cancellation cuts short, a panic the stage's recover turns into a
// *StageFailure, or an error that fails the run. It returns the next
// trigger point, or 0 when the thread must stop.
func (e *engine) threadFault(ti int, steps, iters int64) int64 {
	e.flush(ti, steps, iters)
	th := e.threads[ti]
	where := fmt.Sprintf("injected fault: thread %d at step %d (plan seed %d)",
		ti, th.res.Steps, e.opts.Faults.Seed)
	if err := th.fault.Act(e.ctx, where); err != nil {
		e.fail(fmt.Errorf("runtime: %s: %w", where, err))
	}
	if e.ctx.Err() != nil {
		return 0
	}
	return e.nextFault(ti, th.res.Steps)
}
