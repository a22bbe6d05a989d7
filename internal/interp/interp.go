package interp

import (
	"context"
	"fmt"
	"strings"

	"dswp/internal/ir"
	"dswp/internal/obs"
)

// Event is one dynamically executed instruction, as recorded for the
// timing model: the static instruction plus the dynamic facts timing needs
// (memory address, branch direction).
type Event struct {
	In    *ir.Instr
	Addr  int64 // word address for load/store
	Taken bool  // branch direction
}

// ThreadResult captures one thread's execution.
type ThreadResult struct {
	Fn     *ir.Function
	Trace  []Event
	Counts []int64 // dynamic executions per instruction ID
	Steps  int64
}

// Result captures a whole run.
type Result struct {
	Mem      *Memory
	Threads  []*ThreadResult
	LiveOuts map[ir.Reg]int64 // thread 0's live-out registers
}

// Options configures execution.
type Options struct {
	// MaxSteps bounds total executed instructions across threads
	// (0 = default 500M). Runaway loops fail rather than hang.
	MaxSteps int64
	// Regs pre-initializes thread 0's registers (live-ins).
	Regs map[ir.Reg]int64
	// Mem supplies an initial memory image (cloned; nil = zeroed image
	// sized for thread 0's objects).
	Mem *Memory
	// RecordTrace enables event recording (timing runs need it; pure
	// correctness checks can skip it to save memory).
	RecordTrace bool
	// QueueCap bounds each synchronization-array queue (0 = unbounded).
	// With a bound, produce blocks on a full queue exactly as the
	// hardware synchronization array would, so full-queue back-pressure
	// (and deadlocks caused by it) become observable functionally, not
	// just in the timing model.
	QueueCap int
	// Recorder receives instrumentation events (flow ops, stalls,
	// branches, iterations, stage boundaries). Timestamps are retired
	// instruction counts — the deterministic scheduler's only clock — so
	// stall durations are in steps, not wall time. nil disables
	// instrumentation at the cost of one nil check per site.
	Recorder obs.Recorder
	// Ctx, when set, cancels execution cooperatively: the run returns an
	// error wrapping ctx.Err() at the next scheduling boundary (at most
	// one burst of instructions later). nil means no cancellation.
	Ctx context.Context
	// StartBlock, when non-empty, starts thread 0 at the named block
	// instead of the entry — the checkpoint-resume entry point. RegFile
	// and Mem must carry the matching live state (a runtime.Checkpoint).
	StartBlock string
	// RegFile, when non-nil, initializes thread 0's full register file by
	// register number (a checkpoint's merged file); it takes precedence
	// over Regs.
	RegFile []int64
}

const defaultMaxSteps = 500_000_000

// queue is a FIFO for functional execution: unbounded by default (capacity
// limits are a timing concern handled by package sim), or bounded when
// Options.QueueCap asks the interpreter to reproduce full-queue blocking.
type queue struct {
	buf  []int64
	head int
	cap  int // 0 = unbounded
}

func (q *queue) push(v int64) { q.buf = append(q.buf, v) }

func (q *queue) empty() bool { return q.head >= len(q.buf) }

// occupancy returns the number of buffered values.
func (q *queue) occupancy() int { return len(q.buf) - q.head }

func (q *queue) full() bool { return q.cap > 0 && q.occupancy() >= q.cap }

func (q *queue) pop() int64 {
	v := q.buf[q.head]
	q.head++
	if q.head > 4096 && q.head*2 > len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return v
}

// stallReason says why a thread cannot retire its next instruction, using
// the sim package's StallEmpty/StallFull vocabulary.
type stallReason uint8

const (
	stallNone  stallReason = iota
	stallEmpty             // consume on an empty queue
	stallFull              // produce on a full queue (bounded mode only)
)

type thread struct {
	res        *ThreadResult
	code       *Code
	regs       []int64
	pc         int
	done       bool
	stall      stallReason
	stallQueue int

	// iters counts completed outer-loop iterations (back-edge transfers
	// to code.Outer), reported in deadlock diagnostics.
	iters int64

	// Instrumentation state (used only with Options.Recorder set):
	// inStall marks an open stall interval begun at step stallStart;
	// stallWasFull records which kind of stall opened the interval, so
	// the End event's kind matches its Begin even though th.stall is
	// cleared before the blocked op completes.
	inStall      bool
	stallWasFull bool
	stallStart   int64
}

// Run executes fn single-threaded. It is the baseline path and the
// profiling path.
func Run(fn *ir.Function, opts Options) (*Result, error) {
	return RunThreads([]*ir.Function{fn}, opts)
}

// RunThreads executes fns concurrently (round-robin, switching on queue
// blocks) with shared memory and shared queues. Thread 0 is the main
// thread; its live-outs are collected. Execution ends when every thread
// has returned. All-blocked is reported as a deadlock, which for DSWP
// output indicates a transformation bug. Each function is lowered to Code
// once per run.
func RunThreads(fns []*ir.Function, opts Options) (*Result, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("interp: no threads")
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSteps
	}
	var mem *Memory
	if opts.Mem != nil {
		mem = opts.Mem.Clone()
	} else {
		mem = MemoryFor(fns[0])
	}

	threads := make([]*thread, len(fns))
	numQueues := 0
	for i, fn := range fns {
		if fn.Entry() == nil {
			return nil, fmt.Errorf("interp: thread %d has no entry block", i)
		}
		code, err := Lower(fn)
		if err != nil {
			return nil, err
		}
		numQueues = max(numQueues, code.NumQueues)
		th := &thread{
			res: &ThreadResult{
				Fn:     fn,
				Counts: make([]int64, fn.NumInstrIDs()),
			},
			code: code,
			regs: make([]int64, fn.MaxReg()+1),
		}
		if i == 0 {
			for r, v := range opts.Regs {
				if int(r) >= len(th.regs) {
					return nil, fmt.Errorf("interp: live-in register %s out of range", r)
				}
				th.regs[r] = v
			}
			if opts.RegFile != nil {
				n := copy(th.regs, opts.RegFile)
				if n < len(opts.RegFile) {
					return nil, fmt.Errorf("interp: register file has %d entries, function holds %d", len(opts.RegFile), n)
				}
			}
			if opts.StartBlock != "" {
				pc, ok := code.BlockPC(opts.StartBlock)
				if !ok {
					return nil, fmt.Errorf("interp: start block %q not found in %s", opts.StartBlock, fn.Name)
				}
				th.pc = pc
			}
		}
		threads[i] = th
	}
	// A queue is allocated when a thread first touches it, so deadlock
	// reports list only the queues the run used.
	queues := make([]*queue, numQueues)
	rec := opts.Recorder
	if rec != nil {
		// Declare every statically referenced queue's capacity and open
		// each stage before execution starts.
		for q := 0; q < numQueues; q++ {
			rec.Record(obs.Event{Kind: obs.KQueueCap, Thread: 0, Queue: int32(q), Arg: int64(opts.QueueCap)})
		}
		for ti := range threads {
			rec.Record(obs.Event{Kind: obs.KStageStart, Thread: int32(ti), Queue: -1})
		}
	}

	var total int64
	// Round-robin until all threads are done. Each turn a thread runs a
	// bounded burst, so queue growth stays modest and scheduling is fair.
	const burst = 4096
	for {
		if opts.Ctx != nil {
			if err := opts.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("interp: canceled after %d steps: %w", total, err)
			}
		}
		allDone := true
		anyProgress := false
		for ti, th := range threads {
			if th.done {
				continue
			}
			allDone = false
			progressed, err := runBurst(th, ti, mem, queues, opts.QueueCap, min(total+burst, maxSteps), &total, opts.RecordTrace, rec)
			if err != nil {
				return nil, fmt.Errorf("interp: thread %d: %w", ti, err)
			}
			if progressed {
				anyProgress = true
			}
		}
		if allDone {
			break
		}
		if !anyProgress {
			return nil, deadlockError(threads, queues)
		}
		if total >= maxSteps {
			return nil, fmt.Errorf("interp: step limit %d exceeded", maxSteps)
		}
	}

	res := &Result{Mem: mem, LiveOuts: map[ir.Reg]int64{}}
	for _, th := range threads {
		res.Threads = append(res.Threads, th.res)
	}
	for _, r := range fns[0].LiveOuts {
		res.LiveOuts[r] = threads[0].regs[r]
	}
	return res, nil
}

func deadlockError(threads []*thread, queues []*queue) error {
	var sb strings.Builder
	sb.WriteString("interp: deadlock:")
	for i, th := range threads {
		state := "done"
		if !th.done {
			in := "?"
			if op := th.code.Ops[th.pc]; op.In != nil {
				in = op.In.String()
			}
			why := ""
			switch th.stall {
			case stallEmpty:
				why = fmt.Sprintf(" (StallEmpty q%d)", th.stallQueue)
			case stallFull:
				why = fmt.Sprintf(" (StallFull q%d)", th.stallQueue)
			}
			block, off := th.code.Where(th.pc)
			// A loop-free thread reads -1, as runtime.BlockInfo.Iter does.
			iter := th.iters
			if th.code.Outer < 0 {
				iter = -1
			}
			state = fmt.Sprintf("blocked%s at %s/%s[%d] %q iter=%d",
				why, th.res.Fn.Name, block.Name, off, in, iter)
		}
		fmt.Fprintf(&sb, " thread%d=%s;", i, state)
	}
	// Queue occupancy, with the static producer/consumer threads of each
	// queue, so a cyclic partition's wait-for cycle is readable directly
	// from the message. The table format is shared with the concurrent
	// runtime's DeadlockError (obs.FormatQueueTable) so both error paths
	// print identical diagnostics.
	var qs []obs.QueueState
	for id, q := range queues {
		if q == nil {
			continue
		}
		prods, cons := queueEndpoints(threads, id)
		qs = append(qs, obs.QueueState{
			Queue: id, Len: q.occupancy(), Cap: q.cap,
			Producers: prods, Consumers: cons,
		})
	}
	sb.WriteString(" " + obs.FormatQueueTable(qs))
	return fmt.Errorf("%s", sb.String())
}

// queueEndpoints returns the thread indices that statically produce to and
// consume from queue id.
func queueEndpoints(threads []*thread, id int) (prods, cons []int) {
	for ti, th := range threads {
		var p, c bool
		for _, op := range th.code.Ops {
			if int(op.Q) != id {
				continue
			}
			switch op.Op {
			case ir.OpProduce:
				p = true
			case ir.OpConsume:
				c = true
			}
		}
		if p {
			prods = append(prods, ti)
		}
		if c {
			cons = append(cons, ti)
		}
	}
	return prods, cons
}

// runBurst executes thread ti until the shared retired-step counter
// reaches end, the thread stalls on a queue or it returns; it reports
// whether any instruction retired. rec, when non-nil, receives
// flow/stall/branch/iteration/stage events timestamped with the shared
// retired-step counter.
func runBurst(th *thread, ti int, mem *Memory, queues []*queue, qcap int, end int64, total *int64, trace bool, rec obs.Recorder) (bool, error) {
	ops, regs, counts, words := th.code.Ops, th.regs, th.res.Counts, mem.Words()
	pc, tot := th.pc, *total
	start := tot
	hooked := trace || rec != nil
	var addr int64
	var err error
run:
	for tot < end {
		op := &ops[pc]
		switch op.Op {
		case ir.OpConsume:
			q := touch(queues, op.Q, qcap)
			if q.empty() {
				if rec != nil && !th.inStall {
					th.inStall, th.stallWasFull, th.stallStart = true, false, tot
					rec.Record(obs.Event{Kind: obs.KStallEmptyBegin,
						Thread: int32(ti), Queue: op.Q, When: tot})
				}
				th.stall, th.stallQueue = stallEmpty, int(op.Q)
				break run
			}
			th.stall = stallNone
			if th.inStall {
				th.stallEnds(ti, op.Q, tot, rec)
			}
			v := q.pop()
			if op.Dst >= 0 {
				regs[op.Dst] = v
			}
			pc++
		case ir.OpProduce:
			q := touch(queues, op.Q, qcap)
			if q.full() {
				if rec != nil && !th.inStall {
					th.inStall, th.stallWasFull, th.stallStart = true, true, tot
					rec.Record(obs.Event{Kind: obs.KStallFullBegin,
						Thread: int32(ti), Queue: op.Q, When: tot})
				}
				th.stall, th.stallQueue = stallFull, int(op.Q)
				break run
			}
			th.stall = stallNone
			if th.inStall {
				th.stallEnds(ti, op.Q, tot, rec)
			}
			v := int64(0)
			if op.A >= 0 {
				v = regs[op.A]
			}
			q.push(v)
			pc++
		case ir.OpBranch:
			back := op.BackF
			if regs[op.A] != 0 {
				pc, back = int(op.T), op.BackT
			} else {
				pc = int(op.F)
			}
			if back && pc == th.code.Outer {
				th.iters++
			}
		case ir.OpJump:
			pc = int(op.T)
			if op.BackT && pc == th.code.Outer {
				th.iters++
			}
		case ir.OpRet:
			th.done = true
			pc++
		case ir.OpLoad:
			addr = regs[op.A] + op.Imm
			if uint64(addr) >= uint64(len(words)) {
				_, err = mem.Load(addr)
				err = fmt.Errorf("%s: %w", op.In, err)
				break run
			}
			regs[op.Dst] = words[addr]
			pc++
		case ir.OpStore:
			addr = regs[op.B] + op.Imm
			if uint64(addr) >= uint64(len(words)) {
				err = fmt.Errorf("%s: %w", op.In, mem.Store(addr, regs[op.A]))
				break run
			}
			words[addr] = regs[op.A]
			pc++
		case ir.OpCall:
			// Opaque call: functionally a no-op; timing charges Imm.
			pc++
		case OpSkip:
			pc++
			continue
		case OpEnd:
			err = th.code.FellOff()
			break run
		default:
			regs[op.Dst] = op.Eval(regs)
			pc++
		}

		counts[op.ID]++
		tot++
		if hooked {
			th.hook(ti, op, regs, addr, queues, tot, th.res.Steps+tot-start, trace, rec)
		}
		if th.done {
			break
		}
	}
	th.pc = pc
	th.res.Steps += tot - start
	*total = tot
	return tot > start, err
}

// touch returns queue id, allocating it on first use.
func touch(queues []*queue, id int32, qcap int) *queue {
	q := queues[id]
	if q == nil {
		q = &queue{cap: qcap}
		queues[id] = q
	}
	return q
}

// stallEnds closes the open stall interval, charging its duration in
// steps. The End kind mirrors the Begin kind recorded when the interval
// opened (th.stall is already cleared by the time the blocked op finally
// completes, so it cannot be consulted here) — this keeps full/empty
// stall accounting symmetric with the concurrent runtime on bounded-queue
// runs.
func (th *thread) stallEnds(ti int, q int32, now int64, rec obs.Recorder) {
	th.inStall = false
	kind := obs.KStallEmptyEnd
	if th.stallWasFull {
		kind = obs.KStallFullEnd
	}
	rec.Record(obs.Event{Kind: kind, Thread: int32(ti), Queue: q,
		When: now, Arg: now - th.stallStart})
}

// hook records the trace event and recorder events of an op that just
// retired as the tot-th step overall and the steps-th of its thread.
// Events about the op itself carry its pre-retirement timestamp.
func (th *thread) hook(ti int, op *Op, regs []int64, addr int64, queues []*queue, tot, steps int64, trace bool, rec obs.Recorder) {
	ev, back := op.Retired(regs, addr)
	if trace {
		th.res.Trace = append(th.res.Trace, ev)
	}
	if rec == nil {
		return
	}
	switch op.Op {
	case ir.OpConsume, ir.OpProduce:
		kind := obs.KConsume
		if op.Op == ir.OpProduce {
			kind = obs.KProduce
		}
		rec.Record(obs.Event{Kind: kind, Thread: int32(ti), Queue: op.Q,
			When: tot - 1, Arg: int64(queues[op.Q].occupancy())})
	case ir.OpBranch:
		rec.Record(obs.Event{Kind: obs.KBranch, Thread: int32(ti), Queue: -1,
			When: tot - 1, Arg: b2i(ev.Taken)})
	case ir.OpRet:
		rec.Record(obs.Event{Kind: obs.KStageDone, Thread: int32(ti), Queue: -1,
			When: tot, Arg: steps})
	}
	if back {
		rec.Record(obs.Event{Kind: obs.KIteration, Thread: int32(ti), Queue: -1, When: tot - 1})
	}
}
