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

// DefaultQueueCap matches the paper's 32-entry synchronization-array
// queues (and sim.Config's default QueueSize).
const DefaultQueueCap = 32

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
	// traffic off the hot path, and bounds how many instructions a value
	// or slot can stay unpublished in a ring queue.
	flushEvery = 256
	// ctxCheckEvery bounds how many instructions a thread retires between
	// cancellation checks.
	ctxCheckEvery = 1024
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

	// iters is the thread's completed outer-loop iteration count,
	// published for failure diagnostics (-1 until the first back-edge of
	// a loop-free thread never fires).
	iters atomic.Int64

	// Guarded by engine.mu. The blocking instruction is kept as is and
	// formatted only when a snapshot is taken, so a stall costs no
	// allocation.
	state blockState
	queue int
	block string
	pc    int
	instr *ir.Instr
}

type engine struct {
	fns     []*ir.Function
	opts    Options
	mem     *interp.Memory
	queues  []queue.Queue
	threads []*threadState

	// plan holds the static analyses (queue topology, packet widths,
	// block layout indices): caller-supplied and shared across runs, or
	// built fresh for this run. Read-only here.
	plan *Plan

	rec      obs.Recorder
	start    time.Time
	outerHdr []*ir.Block // thread -> outer-loop back-edge target (nil = loop-free); engine-owned copy when a checkpoint spec overrides it
	ckpt     *ckptState  // nil when checkpointing is disabled

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
			c := plan.capFor(q, e.opts.QueueCap)
			if faults.QueueCap[q] > 0 {
				c = faults.QueueCap[q]
				if w := plan.packWidth[q]; w > 1 {
					c *= w
				}
			}
			e.queues[q] = plan.newQueue(q, e.opts.Queue, c)
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
			th.res.Counts = make([]int64, fn.NumInstrIDs())
			th.regs = make([]int64, fn.MaxReg()+1)
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
	// The outer-loop header feeds back-edge detection for iteration
	// counting, checkpoint barriers, and instrumentation. The plan's
	// slice is shared across runs, so a checkpoint-spec override below
	// works on an engine-owned copy.
	e.outerHdr = plan.outerHdr
	if spec := e.opts.Checkpoint; spec != nil && len(spec.RegOwner) > 0 {
		e.outerHdr = append([]*ir.Block(nil), plan.outerHdr...)
		aligned := true
		if spec.Header != "" {
			// Anchor every thread's epoch on its copy of the named loop
			// header, so threads count iterations of the same loop.
			for i, fn := range e.fns {
				var named *ir.Block
				for _, b := range fn.Blocks {
					if b.Name == spec.Header {
						named = b
						break
					}
				}
				if named == nil {
					aligned = false
					break
				}
				e.outerHdr[i] = named
			}
		} else {
			for _, h := range e.outerHdr {
				if h == nil {
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

func (e *engine) setBlocked(ti int, st blockState, block *ir.Block, pc int, in *ir.Instr) {
	th := e.threads[ti]
	e.mu.Lock()
	th.state = st
	th.queue = in.Queue
	th.block = block.Name
	th.pc = pc
	th.instr = in
	e.mu.Unlock()
}

func (e *engine) setState(ti int, st blockState) {
	e.mu.Lock()
	e.threads[ti].state = st
	e.mu.Unlock()
}

// runThread is one pipeline stage: a straight interpreter loop over the
// thread's function, blocking for real on its queues. Panics inside
// the stage (including injected ones) are captured into a *StageFailure
// carrying a full pipeline snapshot instead of crashing the process.
func (e *engine) runThread(ti int) {
	th := e.threads[ti]
	defer func() {
		if r := recover(); r != nil {
			e.failPanic(ti, r, debug.Stack())
		}
		e.ckptLeave(ti)
		e.wg.Done()
	}()
	fn := e.fns[ti]
	regs := th.regs
	block := fn.Entry()
	pc := 0
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
	layout := e.plan.layout[ti]
	outerHdr := e.outerHdr[ti]
	var iters int64
	var ckptEvery int64
	// dirty is this thread's dirty-page bitmap, nil unless the run
	// checkpoints: an unchecked store pays one nil check for it.
	var dirty []uint64
	if e.ckpt != nil {
		ckptEvery = e.ckpt.every
		dirty = e.ckpt.dirty[ti]
	}
	if rec != nil {
		rec.Record(obs.Event{Kind: obs.KStageStart, Thread: int32(ti), Queue: -1, When: e.now()})
		defer func() {
			rec.Record(obs.Event{Kind: obs.KStageDone, Thread: int32(ti), Queue: -1,
				When: e.now(), Arg: th.res.Steps})
		}()
	}

	// flush publishes every queue end this thread owns, then its retired
	// step count. It runs before the thread can wait on anything — a
	// stall, the checkpoint barrier, a thread fault — at OpRet, and every
	// flushEvery instructions, so no thread waits while it holds values
	// or slots its peer needs. It never blocks: unpublished values already
	// sit in slots within capacity.
	produces, consumes := e.plan.produces[ti], e.plan.consumes[ti]
	var local int64
	ctxCheck := 0
	flush := func() {
		for _, q := range produces {
			e.queues[q].Publish()
		}
		for _, q := range consumes {
			e.queues[q].Release()
		}
		if local == 0 {
			return
		}
		if total := e.steps.Add(local); total >= e.maxSteps {
			e.fail(&StepLimitError{Limit: e.maxSteps})
		}
		local = 0
	}
	defer flush()

	for {
		ctxCheck++
		if ctxCheck >= ctxCheckEvery {
			ctxCheck = 0
			if e.ctx.Err() != nil {
				return
			}
		}
		if pc >= len(block.Instrs) {
			next := interp.NextBlock(fn, block)
			if next == nil {
				e.fail(fmt.Errorf("runtime: thread %d fell off the end of block %s", ti, block.Name))
				return
			}
			block, pc = next, 0
			continue
		}
		in := block.Instrs[pc]
		ev := interp.Event{In: in}

		switch in.Op {
		case ir.OpConsume:
			q := e.queues[in.Queue]
			v, ok := q.TryConsume()
			if !ok {
				flush()
				e.setBlocked(ti, stateBlockedEmpty, block, pc, in)
				var t0 int64
				if rec != nil {
					t0 = e.now()
					rec.Record(obs.Event{Kind: obs.KStallEmptyBegin, Thread: int32(ti),
						Queue: int32(in.Queue), When: t0})
				}
				if v, ok = q.Consume(e.ctx.Done()); !ok {
					return
				}
				e.setState(ti, stateRunning)
				if rec != nil {
					t1 := e.now()
					rec.Record(obs.Event{Kind: obs.KStallEmptyEnd, Thread: int32(ti),
						Queue: int32(in.Queue), When: t1, Arg: t1 - t0})
				}
			}
			if fine != nil {
				fine.Record(obs.Event{Kind: obs.KConsume, Thread: int32(ti),
					Queue: int32(in.Queue), When: e.now(), Arg: int64(q.Len())})
			}
			if in.Dst != ir.NoReg {
				regs[in.Dst] = v
			}
			pc++
		case ir.OpProduce:
			q := e.queues[in.Queue]
			v := int64(0)
			if len(in.Src) > 0 {
				v = regs[in.Src[0]]
			}
			if !q.TryProduce(v) {
				flush()
				e.setBlocked(ti, stateBlockedFull, block, pc, in)
				var t0 int64
				if rec != nil {
					t0 = e.now()
					rec.Record(obs.Event{Kind: obs.KStallFullBegin, Thread: int32(ti),
						Queue: int32(in.Queue), When: t0})
				}
				if !q.Produce(v, e.ctx.Done()) {
					return
				}
				e.setState(ti, stateRunning)
				if rec != nil {
					t1 := e.now()
					rec.Record(obs.Event{Kind: obs.KStallFullEnd, Thread: int32(ti),
						Queue: int32(in.Queue), When: t1, Arg: t1 - t0})
				}
			}
			if fine != nil {
				fine.Record(obs.Event{Kind: obs.KProduce, Thread: int32(ti),
					Queue: int32(in.Queue), When: e.now(), Arg: int64(q.Len())})
			}
			pc++
		case ir.OpBranch:
			taken := regs[in.Src[0]] != 0
			ev.Taken = taken
			prev := block
			if taken {
				block, pc = in.Target, 0
			} else {
				block, pc = in.TargetFalse, 0
			}
			backEdge := layout[block.ID] <= layout[prev.ID]
			if fine != nil {
				arg := int64(0)
				if taken {
					arg = 1
				}
				now := e.now()
				fine.Record(obs.Event{Kind: obs.KBranch, Thread: int32(ti), Queue: -1, When: now, Arg: arg})
				if backEdge {
					fine.Record(obs.Event{Kind: obs.KIteration, Thread: int32(ti), Queue: -1, When: now})
				}
			}
			if backEdge && block == outerHdr {
				iters++
				th.iters.Store(iters)
				if ckptEvery > 0 && iters%ckptEvery == 0 {
					flush()
					e.ckptArrive(ti, iters)
					if e.ctx.Err() != nil {
						return
					}
				}
			}
		case ir.OpJump:
			ev.Taken = true
			prev := block
			block, pc = in.Target, 0
			backEdge := layout[block.ID] <= layout[prev.ID]
			if fine != nil && backEdge {
				fine.Record(obs.Event{Kind: obs.KIteration, Thread: int32(ti), Queue: -1, When: e.now()})
			}
			if backEdge && block == outerHdr {
				iters++
				th.iters.Store(iters)
				if ckptEvery > 0 && iters%ckptEvery == 0 {
					flush()
					e.ckptArrive(ti, iters)
					if e.ctx.Err() != nil {
						return
					}
				}
			}
		case ir.OpRet:
			pc++
		case ir.OpLoad:
			addr := regs[in.Src[0]] + in.Imm
			ev.Addr = addr
			v, err := e.mem.Load(addr)
			if err != nil {
				e.fail(fmt.Errorf("runtime: thread %d: %s: %w", ti, in, err))
				return
			}
			regs[in.Dst] = v
			pc++
		case ir.OpStore:
			addr := regs[in.Src[1]] + in.Imm
			ev.Addr = addr
			if err := e.mem.Store(addr, regs[in.Src[0]]); err != nil {
				e.fail(fmt.Errorf("runtime: thread %d: %s: %w", ti, in, err))
				return
			}
			if dirty != nil {
				page := addr >> pageShift
				dirty[page>>6] |= 1 << (page & 63)
			}
			pc++
		case ir.OpCall:
			// Opaque call: functionally a no-op; timing charges Imm.
			pc++
		default:
			regs[in.Dst] = interp.EvalALU(in, regs)
			pc++
		}

		th.res.Counts[in.ID]++
		th.res.Steps++
		local++
		if local >= flushEvery {
			flush()
		}
		if trace {
			th.res.Trace = append(th.res.Trace, ev)
		}
		if th.res.Steps >= faultAt {
			if faultAt = e.threadFault(ti, flush); faultAt == 0 {
				return
			}
		}
		if in.Op == ir.OpRet {
			flush()
			e.setState(ti, stateDone)
			return
		}
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
		if e.outerHdr[i] == nil {
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
			info.Queue = th.queue
			info.Block = th.block
			info.PC = th.pc
			info.Instr = th.instr.String()
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
