// Package runtime executes DSWP-transformed thread functions under true
// concurrency: each partition thread is a real goroutine and every
// synchronization-array queue is a bounded queue from internal/queue —
// either a buffered Go channel (the default) or, under Options.Queue =
// queue.KindRing, a lock-free SPSC ring buffer that publishes its indices
// once per batch of values (the low-latency substrate the paper's
// performance argument depends on). Every produce and consume instruction,
// packed or not, moves one value, as in the paper's synchronization array.
// Where the deterministic round-robin interpreter (internal/interp) is the
// friendly reference schedule, this runtime is the adversarial one —
// full-queue back-pressure, arbitrary OS-level interleavings, cross-thread
// memory visibility, and injected faults are all exercised for real, and
// every cross-thread memory dependence is observable by the Go race
// detector (flow queues are the only happens-before edges between threads,
// exactly as the paper's synchronization array is the only inter-core
// ordering).
//
// A watchdog converts all-blocked states into structured DeadlockError
// values carrying per-thread block sites and queue occupancy, and a
// wall-clock bound converts stalls into TimeoutError. Recovering from a
// failed run is the supervisor's job (internal/supervisor): it resumes the
// original loop sequentially from the run's last committed checkpoint.
package runtime

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/queue"
)

// DefaultQueueCap is the default per-queue capacity. The paper's
// synchronization array has 32-entry queues because it is hardware: each
// entry costs silicon and a produce or consume costs about a cycle. A
// software queue's entry costs 8 bytes, while its hand-off costs an atomic
// index store and a cache-line transfer, which the ring amortizes over a
// publication batch of up to a quarter of the capacity. A deep queue lets
// that batch reach its maximum and gives stages more slack to absorb
// uneven iterations. Only the cycle model in internal/sim models the
// hardware array, and it keeps 32 entries (sim.Config.QueueSize).
const DefaultQueueCap = 1024

const (
	defaultMaxSteps = 500_000_000
	defaultTimeout  = 30 * time.Second
	defaultPoll     = 2 * time.Millisecond
	// stalePolls is how many consecutive no-progress watchdog polls with
	// every live thread parked on a queue are required before declaring
	// deadlock (>= 30ms of zero retirement at the default poll). The
	// occupancy consistency check plus this window make false verdicts
	// require a runnable goroutine starved for the whole window while the
	// watchdog schedules freely — and even then the failure is a
	// structured error feeding the sequential fallback, never a wrong
	// result.
	stalePolls = 15
	// flushEvery batches the shared retired-step counter to keep atomic
	// traffic off the hot path, bounds how many instructions a value or
	// slot can stay unpublished in a ring queue, and paces each thread's
	// step-limit and cancellation checks.
	flushEvery = 256
)

// Options configures a concurrent run.
type Options struct {
	// QueueCap is the per-queue capacity (<=0 = DefaultQueueCap).
	// Sweepable down to 1; any capacity >= 1 must produce identical
	// results for correct DSWP output.
	QueueCap int
	// Queue selects the communication substrate: queue.KindChannel (zero
	// value, buffered Go channels) or queue.KindRing (lock-free SPSC ring
	// buffers with batched index publication). Queue kind must never change
	// results — only throughput. Ring queues are SPSC, so any queue whose
	// static produce or consume sites span more than one thread silently
	// falls back to a channel.
	Queue queue.Kind
	// MaxSteps bounds total retired instructions (0 = default 500M).
	MaxSteps int64
	// Timeout bounds wall-clock time (0 = default 30s).
	Timeout time.Duration
	// Poll is the watchdog sampling interval (0 = default 2ms).
	Poll time.Duration
	// Regs pre-initializes thread 0's registers (live-ins).
	Regs map[ir.Reg]int64
	// Mem supplies an initial memory image (cloned; nil = zeroed image
	// sized for thread 0's objects).
	Mem *interp.Memory
	// RecordTrace enables per-thread event recording for the timing model.
	RecordTrace bool
	// Faults injects deterministic run-scoped failpoint policies on
	// queues and threads, and capacity overrides.
	Faults *FaultPlan
	// Recorder receives instrumentation events (flow ops, stalls,
	// branches, iterations, stage boundaries) timestamped in nanoseconds
	// since run start. nil disables instrumentation; the hot path then
	// pays one nil check per site and nothing else.
	Recorder obs.Recorder
	// Checkpoint enables iteration-aligned checkpointing with an epoch
	// barrier (see CheckpointSpec). nil disables it.
	Checkpoint *CheckpointSpec
	// Plan supplies the precomputed static execution plan for exactly
	// these thread functions (NewPlan), skipping the per-run analysis.
	// nil builds a throwaway plan, preserving the original behavior. The
	// serving engine caches one plan per compiled pipeline.
	Plan *Plan
	// Instance supplies warm per-run state (queues, register files,
	// retirement counts) allocated by Plan.NewInstance with a matching
	// queue kind and capacity; the run resets it before use. It implies
	// Plan (the instance carries its own) and is incompatible with fault
	// injection, whose per-queue capacity overrides need freshly-sized
	// queues. nil allocates fresh state, preserving the original
	// behavior.
	Instance *Instance
}

type blockState uint8

const (
	stateRunning blockState = iota
	stateBlockedEmpty
	stateBlockedFull
	stateBarrier
	stateDone
)

// threadState is one goroutine's shared-visibility record. The goroutine
// owns regs/res exclusively; the block-site fields are written by the
// goroutine and read by the watchdog under engine.mu.
type threadState struct {
	res  *interp.ThreadResult
	regs []int64

	// fault is the thread's run-scoped fault policy (nil = none).
	fault *failpoint.Eval

	// iters is the thread's completed outer-loop iteration count as of
	// its last flush, published for failure diagnostics: exact for a
	// thread that is blocked, parked or done, at most flushEvery
	// instructions stale for a running one.
	iters atomic.Int64

	// flushed is the part of res.Steps already added to the engine's
	// shared step counter. Owned by the goroutine.
	flushed int64

	// Guarded by engine.mu. A stall records only the blocked op's pc;
	// its block, in-block index and text are derived when a snapshot is
	// taken, so a stall costs no allocation.
	state blockState
	queue int
	pc    int
}

type engine struct {
	fns     []*ir.Function
	opts    Options
	mem     *interp.Memory
	queues  []queue.Queue
	threads []*threadState

	// plan holds the static analyses (queue topology, packet widths,
	// lowered code): caller-supplied and shared across runs, or built
	// fresh for this run. Read-only here.
	plan *Plan

	rec   obs.Recorder
	start time.Time
	// hdr[t] is the pc of the loop header whose back-edge transfers count
	// thread t's iterations (-1 = loop-free): the code's outer header, or
	// the checkpoint spec's named header.
	hdr  []int
	ckpt *ckptState // nil when checkpointing is disabled

	parent   context.Context // the caller's context (cancellation source)
	ctx      context.Context // derived: canceled on failure or parent cancel
	cancel   context.CancelFunc
	maxSteps int64
	steps    atomic.Int64

	mu      sync.Mutex
	failErr error
	wg      sync.WaitGroup
}

// Run executes fns concurrently with shared memory and one bounded queue
// per synchronization-array cell, of the kind Options.Queue selects.
// Thread 0 is the main thread; its live-outs are collected. Deadlocks,
// stalls, and step-limit overruns come back as *DeadlockError,
// *TimeoutError, and *StepLimitError respectively.
func Run(fns []*ir.Function, opts Options) (*interp.Result, error) {
	return RunCtx(context.Background(), fns, opts)
}

// RunCtx is Run under a caller-supplied context: cancellation or deadline
// expiry propagates to every stage goroutine (including blocking queue
// operations and injected sleeps), and an interrupted run returns a
// *CanceledError wrapping the context's error — never a partial result
// passed off as success.
func RunCtx(parent context.Context, fns []*ir.Function, opts Options) (*interp.Result, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("runtime: no threads")
	}
	if parent == nil {
		parent = context.Background()
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	if opts.Timeout == 0 {
		opts.Timeout = defaultTimeout
	}
	if opts.Poll == 0 {
		opts.Poll = defaultPoll
	}
	var mem *interp.Memory
	if opts.Mem != nil {
		mem = opts.Mem.Clone()
	} else {
		mem = interp.MemoryFor(fns[0])
	}

	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	e := &engine{
		fns: fns, opts: opts, mem: mem,
		parent: parent, ctx: ctx, cancel: cancel, maxSteps: maxSteps,
		rec: opts.Recorder, start: time.Now(),
	}
	if err := e.build(); err != nil {
		return nil, err
	}
	if e.rec != nil {
		for q, qu := range e.queues {
			e.rec.Record(obs.Event{Kind: obs.KQueueCap, Thread: 0, Queue: int32(q), Arg: int64(qu.Cap())})
		}
	}

	e.wg.Add(len(fns))
	for i := range fns {
		go e.runThread(i)
	}
	watchdogDone := make(chan struct{})
	var watchdogExit sync.WaitGroup
	watchdogExit.Add(1)
	go func() {
		defer watchdogExit.Done()
		e.watchdog(watchdogDone)
	}()
	e.wg.Wait()
	close(watchdogDone)
	watchdogExit.Wait()

	e.mu.Lock()
	err := e.failErr
	allDone := true
	for _, th := range e.threads {
		if th.state != stateDone {
			allDone = false
		}
	}
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// A canceled parent context makes threads exit silently; without this
	// guard a partial memory image would be returned as success. A run
	// whose every stage already finished is complete and stands.
	if cerr := parent.Err(); cerr != nil && !allDone {
		return nil, &CanceledError{Err: cerr, Steps: e.steps.Load()}
	}

	res := &interp.Result{Mem: mem, LiveOuts: map[ir.Reg]int64{}}
	for _, th := range e.threads {
		res.Threads = append(res.Threads, th.res)
	}
	for _, r := range fns[0].LiveOuts {
		res.LiveOuts[r] = e.threads[0].regs[r]
	}
	return res, nil
}

// build resolves the static plan (caller-supplied or built fresh), sizes
// or adopts the queue array, and initializes thread state — from the warm
// instance when one is supplied, from fresh allocations otherwise.
func (e *engine) build() error {
	inst := e.opts.Instance
	plan := e.opts.Plan
	if inst != nil {
		if e.opts.Faults != nil {
			return fmt.Errorf("runtime: Instance is incompatible with fault injection (per-queue capacity overrides need freshly-sized queues)")
		}
		if plan == nil {
			plan = inst.plan
		} else if plan != inst.plan {
			return fmt.Errorf("runtime: Instance was allocated for a different Plan")
		}
		wantCap := e.opts.QueueCap
		if wantCap <= 0 {
			wantCap = DefaultQueueCap
		}
		if inst.queueCap != wantCap || inst.kind != e.opts.Queue {
			return fmt.Errorf("runtime: Instance built for queue %s cap %d, run wants %s cap %d",
				inst.kind, inst.queueCap, e.opts.Queue, wantCap)
		}
	}
	if plan == nil {
		p, err := NewPlan(e.fns)
		if err != nil {
			return err
		}
		plan = p
	} else if !plan.matches(e.fns) {
		return fmt.Errorf("runtime: Plan was built for different thread functions")
	}
	e.plan = plan
	var faults FaultPlan
	if e.opts.Faults != nil {
		faults = *e.opts.Faults
	}

	if inst != nil {
		// Reset here, not at pool-put time, so reuse is correct even if a
		// caller hands the same instance back without pooling it.
		inst.Reset()
		e.queues = inst.queues
	} else {
		// A packed queue carries packWidth values per iteration, so its
		// capacity scales by the packet width to keep the decoupling slack
		// (iterations of run-ahead) identical to the unpacked pipeline;
		// without this, packing would silently shrink the window the
		// paper's synchronization array provides and stall the producer
		// more, not less. Fault-plan capacity overrides take precedence,
		// and only faulted queues are wrapped in their policy.
		e.queues = make([]queue.Queue, plan.numQueues)
		for q := range e.queues {
			k, c, _ := plan.QueueSize(q, e.opts.Queue, e.opts.QueueCap)
			if faults.QueueCap[q] > 0 {
				c = faults.QueueCap[q]
				if w := plan.packWidth[q]; w > 1 {
					c *= w
				}
			}
			e.queues[q] = queue.New(k, c)
			if pol, ok := faults.Queue[q]; ok {
				e.queues[q] = e.faultQueue(q, e.queues[q], pol)
			}
		}
	}

	e.threads = make([]*threadState, len(e.fns))
	for i, fn := range e.fns {
		th := &threadState{
			res:   &interp.ThreadResult{Fn: fn},
			queue: -1,
		}
		if pol, ok := faults.Thread[i]; ok {
			th.fault = failpoint.NewEval(pol)
		}
		if inst != nil {
			th.res.Counts = inst.counts[i]
			th.regs = inst.regs[i]
		} else {
			th.res.Counts = padded(fn.NumInstrIDs())
			th.regs = padded(int(fn.MaxReg()) + 1)
		}
		if i == 0 {
			for r, v := range e.opts.Regs {
				if int(r) >= len(th.regs) {
					return fmt.Errorf("runtime: live-in register %s out of range", r)
				}
				th.regs[r] = v
			}
		}
		e.threads[i] = th
	}
	// The outer-loop header feeds iteration counting and checkpoint
	// barriers. A checkpoint spec's named header overrides it by pc, so
	// the shared code needs no re-lowering.
	e.hdr = make([]int, len(e.fns))
	for i, c := range plan.code {
		e.hdr[i] = c.Outer
	}
	if spec := e.opts.Checkpoint; spec != nil && len(spec.RegOwner) > 0 {
		aligned := true
		if spec.Header != "" {
			// Anchor every thread's epoch on its copy of the named loop
			// header, so threads count iterations of the same loop.
			for i, c := range plan.code {
				pc, ok := c.BlockPC(spec.Header)
				if !ok {
					aligned = false
					break
				}
				e.hdr[i] = pc
			}
		} else {
			for _, h := range e.hdr {
				if h < 0 {
					aligned = false // a loop-free thread has no boundary to align on
				}
			}
		}
		if aligned {
			e.ckpt = newCkptState(spec, e.mem, len(e.fns))
		}
	}
	return nil
}

// now is the instrumentation clock: nanoseconds since the run started.
func (e *engine) now() int64 { return int64(time.Since(e.start)) }

// fail records the first structured failure and cancels every thread.
func (e *engine) fail(err error) {
	e.mu.Lock()
	if e.failErr == nil {
		e.failErr = err
		e.cancel()
	}
	e.mu.Unlock()
}

// failPanic converts a recovered stage panic into a *StageFailure with a
// full pipeline snapshot.
func (e *engine) failPanic(ti int, v any, stack []byte) {
	e.mu.Lock()
	sf := &StageFailure{
		Thread: ti, Fn: e.fns[ti].Name,
		Value: fmt.Sprint(v), Stack: string(stack),
		Threads: e.blockInfoLocked(), Queues: e.queueInfoLocked(),
	}
	if e.failErr == nil {
		e.failErr = sf
		e.cancel()
	}
	e.mu.Unlock()
}

func (e *engine) setBlocked(ti int, st blockState, pc int) {
	th := e.threads[ti]
	e.mu.Lock()
	th.state = st
	th.queue = int(e.plan.code[ti].Ops[pc].Q)
	th.pc = pc
	e.mu.Unlock()
}

func (e *engine) setState(ti int, st blockState) {
	e.mu.Lock()
	e.threads[ti].state = st
	e.mu.Unlock()
}

// runThread is one pipeline stage: one dispatch loop over the thread's
// lowered code (interp.Code, cached in the plan), blocking for real on its
// queues. Retired steps live in a local that flush stores to th.res.Steps
// before every wait, fault and exit. Trace recording, fine-grained events
// and the thread-fault step check sit behind one hooked branch per
// instruction; the step-limit and cancellation checks run once per
// flush. Panics inside the stage (including injected ones) are captured
// into a *StageFailure carrying a full pipeline snapshot instead of
// crashing the process.
func (e *engine) runThread(ti int) {
	th := e.threads[ti]
	defer func() {
		if r := recover(); r != nil {
			e.failPanic(ti, r, debug.Stack())
		}
		e.ckptLeave(ti)
		e.wg.Done()
	}()
	code := e.plan.code[ti]
	ops, regs, counts := code.Ops, th.regs, th.res.Counts
	mem, words, queues := e.mem, e.mem.Words(), e.queues
	hdr := e.hdr[ti]
	trace := e.opts.RecordTrace
	faultAt := e.nextFault(ti, 0)
	rec := e.rec
	// fine gates the per-value flow events (produce/consume/branch/
	// iteration) separately: a CoarseRecorder opting out skips them —
	// and their per-op clock reads — while keeping structural events.
	fine := rec
	if rec != nil && !obs.FineEvents(rec) {
		fine = nil
	}
	hooked := trace || fine != nil || th.fault != nil
	// nextCkpt is the iteration count of the next checkpoint barrier (0,
	// never reached, when the run does not checkpoint). dirty is this
	// thread's dirty-page bitmap, nil unless the run checkpoints: an
	// unchecked store pays one nil check for it.
	var ckptEvery, nextCkpt int64
	var dirty []uint64
	if e.ckpt != nil {
		ckptEvery = e.ckpt.every
		nextCkpt = ckptEvery
		dirty = e.ckpt.dirty[ti]
	}
	if rec != nil {
		rec.Record(obs.Event{Kind: obs.KStageStart, Thread: int32(ti), Queue: -1, When: e.now()})
		defer func() {
			rec.Record(obs.Event{Kind: obs.KStageDone, Thread: int32(ti), Queue: -1,
				When: e.now(), Arg: th.res.Steps})
		}()
	}

	var steps, iters, addr int64
	nextFlush := int64(flushEvery)
	pc := 0
run:
	for {
		op := &ops[pc]
		switch op.Op {
		case ir.OpConsume:
			q := queues[op.Q]
			v, ok := q.TryConsume()
			if !ok {
				if v, ok = e.waitConsume(ti, pc, q, steps, iters); !ok {
					break run
				}
			}
			if op.Dst >= 0 {
				regs[op.Dst] = v
			}
			pc++
		case ir.OpProduce:
			q := queues[op.Q]
			v := int64(0)
			if op.A >= 0 {
				v = regs[op.A]
			}
			if !q.TryProduce(v) && !e.waitProduce(ti, pc, q, v, steps, iters) {
				break run
			}
			pc++
		case ir.OpBranch:
			back := op.BackF
			if regs[op.A] != 0 {
				pc, back = int(op.T), op.BackT
			} else {
				pc = int(op.F)
			}
			if back && pc == hdr {
				if iters++; iters == nextCkpt {
					if !e.checkpoint(ti, steps, iters) {
						break run
					}
					nextCkpt += ckptEvery
				}
			}
		case ir.OpJump:
			pc = int(op.T)
			if op.BackT && pc == hdr {
				if iters++; iters == nextCkpt {
					if !e.checkpoint(ti, steps, iters) {
						break run
					}
					nextCkpt += ckptEvery
				}
			}
		case ir.OpRet:
			nextFlush = 0 // the flush below ends the stage
		case ir.OpLoad:
			addr = regs[op.A] + op.Imm
			if uint64(addr) >= uint64(len(words)) {
				_, err := mem.Load(addr)
				e.fail(fmt.Errorf("runtime: thread %d: %s: %w", ti, op.In, err))
				break run
			}
			regs[op.Dst] = words[addr]
			pc++
		case ir.OpStore:
			addr = regs[op.B] + op.Imm
			if uint64(addr) >= uint64(len(words)) {
				e.fail(fmt.Errorf("runtime: thread %d: %s: %w", ti, op.In, mem.Store(addr, regs[op.A])))
				break run
			}
			words[addr] = regs[op.A]
			if dirty != nil {
				page := addr >> pageShift
				dirty[page>>6] |= 1 << (page & 63)
			}
			pc++
		case ir.OpCall:
			// Opaque call: functionally a no-op; timing charges Imm.
			pc++
		case interp.OpSkip:
			pc++
			continue
		case interp.OpEnd:
			e.fail(fmt.Errorf("runtime: thread %d %w", ti, code.FellOff()))
			break run
		default:
			regs[op.Dst] = op.Eval(regs)
			pc++
		}

		counts[op.ID]++
		steps++
		if hooked {
			e.hook(ti, op, regs, addr, trace, fine)
			if steps >= faultAt {
				if faultAt = e.threadFault(ti, steps, iters); faultAt == 0 {
					break
				}
			}
		}
		if steps >= nextFlush {
			e.flush(ti, steps, iters)
			if op.Op == ir.OpRet {
				e.setState(ti, stateDone)
				return
			}
			if e.ctx.Err() != nil {
				break
			}
			nextFlush = steps + flushEvery
		}
	}
	e.flush(ti, steps, iters)
}

// flush stores thread ti's retired count and publishes its outer-loop
// iteration count for diagnostics, publishes every queue end the thread
// owns, then adds the count's unflushed part to the shared step counter.
// It runs before the thread can wait on anything — a stall, the
// checkpoint barrier, a thread fault — at exit, and every flushEvery
// instructions, so no thread waits while it holds values or slots its
// peer needs. It never blocks: unpublished values already sit in slots
// within capacity.
func (e *engine) flush(ti int, steps, iters int64) {
	th := e.threads[ti]
	th.res.Steps = steps
	th.iters.Store(iters)
	for _, q := range e.plan.produces[ti] {
		e.queues[q].Publish()
	}
	for _, q := range e.plan.consumes[ti] {
		e.queues[q].Release()
	}
	if n := steps - th.flushed; n > 0 {
		th.flushed = steps
		if e.steps.Add(n) >= e.maxSteps {
			e.fail(&StepLimitError{Limit: e.maxSteps})
		}
	}
}

// waitConsume is the blocking slow path of the consume at pc: flush,
// publish the blocked state to the watchdog, wait. ok=false means the
// run was canceled.
func (e *engine) waitConsume(ti, pc int, q queue.Queue, steps, iters int64) (v int64, ok bool) {
	e.flush(ti, steps, iters)
	e.setBlocked(ti, stateBlockedEmpty, pc)
	t0 := e.stallBegin(ti, obs.KStallEmptyBegin, pc)
	if v, ok = q.Consume(e.ctx.Done()); ok {
		e.setState(ti, stateRunning)
		e.stallEnd(ti, obs.KStallEmptyEnd, pc, t0)
	}
	return v, ok
}

// waitProduce is the blocking slow path of the produce at pc; false
// means the run was canceled.
func (e *engine) waitProduce(ti, pc int, q queue.Queue, v, steps, iters int64) bool {
	e.flush(ti, steps, iters)
	e.setBlocked(ti, stateBlockedFull, pc)
	t0 := e.stallBegin(ti, obs.KStallFullBegin, pc)
	if !q.Produce(v, e.ctx.Done()) {
		return false
	}
	e.setState(ti, stateRunning)
	e.stallEnd(ti, obs.KStallFullEnd, pc, t0)
	return true
}

// stallBegin records a stall's start event and returns its timestamp.
func (e *engine) stallBegin(ti int, kind obs.Kind, pc int) int64 {
	if e.rec == nil {
		return 0
	}
	t0 := e.now()
	e.rec.Record(obs.Event{Kind: kind, Thread: int32(ti), Queue: e.plan.code[ti].Ops[pc].Q, When: t0})
	return t0
}

// stallEnd records a stall's end event, charging its duration.
func (e *engine) stallEnd(ti int, kind obs.Kind, pc int, t0 int64) {
	if e.rec == nil {
		return
	}
	t1 := e.now()
	e.rec.Record(obs.Event{Kind: kind, Thread: int32(ti), Queue: e.plan.code[ti].Ops[pc].Q,
		When: t1, Arg: t1 - t0})
}

// checkpoint parks thread ti at the barrier after its iters-th completed
// outer-loop iteration. false means the run was canceled.
func (e *engine) checkpoint(ti int, steps, iters int64) bool {
	e.flush(ti, steps, iters)
	e.ckptArrive(ti, iters)
	return e.ctx.Err() == nil
}

// hook records the trace event and fine-grained events of an op thread
// ti just retired.
func (e *engine) hook(ti int, op *interp.Op, regs []int64, addr int64, trace bool, fine obs.Recorder) {
	ev, back := op.Retired(regs, addr)
	if trace {
		th := e.threads[ti]
		th.res.Trace = append(th.res.Trace, ev)
	}
	if fine == nil {
		return
	}
	switch op.Op {
	case ir.OpConsume, ir.OpProduce:
		kind := obs.KConsume
		if op.Op == ir.OpProduce {
			kind = obs.KProduce
		}
		fine.Record(obs.Event{Kind: kind, Thread: int32(ti), Queue: op.Q,
			When: e.now(), Arg: int64(e.queues[op.Q].Len())})
	case ir.OpBranch:
		arg := int64(0)
		if ev.Taken {
			arg = 1
		}
		fine.Record(obs.Event{Kind: obs.KBranch, Thread: int32(ti), Queue: -1, When: e.now(), Arg: arg})
	}
	if back {
		fine.Record(obs.Event{Kind: obs.KIteration, Thread: int32(ti), Queue: -1, When: e.now()})
	}
}

// watchdog converts all-blocked states into DeadlockError and wall-clock
// overruns into TimeoutError. The deadlock verdict requires (a) no retired
// instruction across stalePolls+1 consecutive polls, (b) every live thread
// parked on a queue op, and (c) occupancy consistency — each claimed
// empty-wait queue is empty and each full-wait queue is full — which makes
// the verdict sound, not heuristic: such a state can never make progress.
func (e *engine) watchdog(done <-chan struct{}) {
	ticker := time.NewTicker(e.opts.Poll)
	defer ticker.Stop()
	start := time.Now()
	last := int64(-1)
	stale := 0
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		s := e.steps.Load()
		if s != last {
			last, stale = s, 0
		} else {
			stale++
		}

		e.mu.Lock()
		if e.failErr != nil {
			e.mu.Unlock()
			return
		}
		live, blocked, queueBlocked := 0, 0, 0
		consistent := true
		for _, th := range e.threads {
			switch th.state {
			case stateDone:
				continue
			case stateBlockedEmpty:
				blocked++
				queueBlocked++
				if e.queues[th.queue].Len() != 0 {
					consistent = false
				}
			case stateBlockedFull:
				blocked++
				queueBlocked++
				if q := e.queues[th.queue]; q.Len() < q.Cap() {
					consistent = false
				}
			case stateBarrier:
				// Parked at the checkpoint barrier. A mix of
				// barrier-parked and queue-blocked threads is a real
				// deadlock (the barrier cannot release without the
				// blocked thread arriving); all-at-barrier is transient
				// (the last arriver releases synchronously) and never
				// trips the verdict.
				blocked++
			}
			live++
		}
		if live == 0 {
			e.mu.Unlock()
			return
		}
		if blocked == live && queueBlocked > 0 && consistent && stale >= stalePolls {
			e.failErr = e.deadlockLocked()
			e.cancel()
			e.mu.Unlock()
			return
		}
		if elapsed := time.Since(start); elapsed > e.opts.Timeout {
			e.failErr = &TimeoutError{Elapsed: elapsed, Steps: s, Threads: e.blockInfoLocked()}
			e.cancel()
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
	}
}

// blockInfoLocked snapshots every thread's state; callers hold e.mu.
func (e *engine) blockInfoLocked() []BlockInfo {
	infos := make([]BlockInfo, len(e.threads))
	for i, th := range e.threads {
		info := BlockInfo{Thread: i, Fn: e.fns[i].Name, Queue: -1, Iter: th.iters.Load()}
		if e.hdr[i] < 0 {
			info.Iter = -1
		}
		switch th.state {
		case stateRunning:
			info.State = "running"
		case stateDone:
			info.State = "done"
		case stateBarrier:
			info.State = "checkpoint-barrier"
		case stateBlockedEmpty, stateBlockedFull:
			info.State = "blocked-empty"
			if th.state == stateBlockedFull {
				info.State = "blocked-full"
			}
			code := e.plan.code[i]
			block, off := code.Where(th.pc)
			info.Queue = th.queue
			info.Block = block.Name
			info.PC = off
			info.Instr = code.Ops[th.pc].In.String()
		}
		infos[i] = info
	}
	return infos
}

// queueInfoLocked snapshots every queue's occupancy; callers hold e.mu.
func (e *engine) queueInfoLocked() []QueueInfo {
	infos := make([]QueueInfo, 0, len(e.queues))
	for q, qu := range e.queues {
		infos = append(infos, QueueInfo{
			Queue: q, Len: qu.Len(), Cap: qu.Cap(),
			Producers: e.plan.prods[q], Consumers: e.plan.cons[q],
		})
	}
	return infos
}

func (e *engine) deadlockLocked() *DeadlockError {
	return &DeadlockError{Threads: e.blockInfoLocked(), Queues: e.queueInfoLocked()}
}
