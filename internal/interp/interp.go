package interp

import (
	"context"
	"fmt"
	"sort"
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
	regs       []int64
	block      *ir.Block
	pc         int
	done       bool
	stall      stallReason
	stallQueue int

	// iters counts completed outer-loop iterations (backward transfers to
	// outerHdr, the function's outermost back-edge target), reported in
	// deadlock diagnostics.
	iters    int64
	outerHdr *ir.Block
	blockIdx map[*ir.Block]int

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
// output indicates a transformation bug.
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

	queues := map[int]*queue{}
	getQueue := func(id int) *queue {
		q := queues[id]
		if q == nil {
			q = &queue{cap: opts.QueueCap}
			queues[id] = q
		}
		return q
	}

	threads := make([]*thread, len(fns))
	for i, fn := range fns {
		if fn.Entry() == nil {
			return nil, fmt.Errorf("interp: thread %d has no entry block", i)
		}
		th := &thread{
			res: &ThreadResult{
				Fn:     fn,
				Counts: make([]int64, fn.NumInstrIDs()),
			},
			regs:  make([]int64, fn.MaxReg()+1),
			block: fn.Entry(),
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
				var start *ir.Block
				for _, b := range fn.Blocks {
					if b.Name == opts.StartBlock {
						start = b
						break
					}
				}
				if start == nil {
					return nil, fmt.Errorf("interp: start block %q not found in %s", opts.StartBlock, fn.Name)
				}
				th.block = start
			}
		}
		th.blockIdx = make(map[*ir.Block]int, len(fn.Blocks))
		for bi, b := range fn.Blocks {
			th.blockIdx[b] = bi
		}
		th.outerHdr = OuterBackEdgeTarget(fn, BlockLayout(fn))
		threads[i] = th
	}
	rec := opts.Recorder
	if rec != nil {
		// Declare every statically referenced queue's capacity and open
		// each stage before execution starts.
		numQueues := 0
		for _, fn := range fns {
			fn.Instrs(func(in *ir.Instr) {
				if in.Op.IsFlow() && in.Queue+1 > numQueues {
					numQueues = in.Queue + 1
				}
			})
		}
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
			progressed, err := runBurst(th, ti, mem, getQueue, burst, &total, maxSteps, opts.RecordTrace, rec)
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

// BlockLayout returns fn's layout order indexed by Block.ID: layout[b.ID]
// is b's position in fn.Blocks. A transfer to a block at the same or an
// earlier position is a back edge.
func BlockLayout(fn *ir.Function) []int {
	n := 0
	for _, b := range fn.Blocks {
		n = max(n, b.ID+1)
	}
	layout := make([]int, n)
	for bi, b := range fn.Blocks {
		layout[b.ID] = bi
	}
	return layout
}

// OuterBackEdgeTarget returns fn's outermost loop header: the earliest
// block (in layout order, as given by BlockLayout) targeted by any
// backward transfer. Inner-loop headers appear later in layout, so
// transfers to this block count exactly the outer-loop iterations — robust
// against pipeline threads replicating inner loops asymmetrically. Returns
// nil for loop-free functions.
func OuterBackEdgeTarget(fn *ir.Function, layout []int) *ir.Block {
	var best *ir.Block
	consider := func(from int, tg *ir.Block) {
		if tg == nil || tg.ID >= len(layout) || fn.Blocks[layout[tg.ID]] != tg {
			return
		}
		if ti := layout[tg.ID]; ti <= from && (best == nil || ti < layout[best.ID]) {
			best = tg
		}
	}
	for bi, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpJump:
				consider(bi, in.Target)
			case ir.OpBranch:
				consider(bi, in.Target)
				consider(bi, in.TargetFalse)
			}
		}
	}
	return best
}

func deadlockError(threads []*thread, queues map[int]*queue) error {
	var sb strings.Builder
	sb.WriteString("interp: deadlock:")
	for i, th := range threads {
		state := "done"
		if !th.done {
			in := "?"
			if th.pc < len(th.block.Instrs) {
				in = th.block.Instrs[th.pc].String()
			}
			why := ""
			switch th.stall {
			case stallEmpty:
				why = fmt.Sprintf(" (StallEmpty q%d)", th.stallQueue)
			case stallFull:
				why = fmt.Sprintf(" (StallFull q%d)", th.stallQueue)
			}
			state = fmt.Sprintf("blocked%s at %s/%s[%d] %q iter=%d",
				why, th.res.Fn.Name, th.block.Name, th.pc, in, th.iters)
		}
		fmt.Fprintf(&sb, " thread%d=%s;", i, state)
	}
	// Queue occupancy, with the static producer/consumer threads of each
	// queue, so a cyclic partition's wait-for cycle is readable directly
	// from the message. The table format is shared with the concurrent
	// runtime's DeadlockError (obs.FormatQueueTable) so both error paths
	// print identical diagnostics.
	ids := make([]int, 0, len(queues))
	for id := range queues {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	qs := make([]obs.QueueState, 0, len(ids))
	for _, id := range ids {
		q := queues[id]
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
		th.res.Fn.Instrs(func(in *ir.Instr) {
			if in.Queue != id {
				return
			}
			switch in.Op {
			case ir.OpProduce:
				p = true
			case ir.OpConsume:
				c = true
			}
		})
		if p {
			prods = append(prods, ti)
		}
		if c {
			cons = append(cons, ti)
		}
	}
	return prods, cons
}

// runBurst executes up to n instructions of thread ti; returns whether
// any instruction retired. rec, when non-nil, receives flow/stall/branch/
// iteration/stage events timestamped with the shared retired-step counter.
func runBurst(th *thread, ti int, mem *Memory, getQueue func(int) *queue, n int, total *int64, maxSteps int64, trace bool, rec obs.Recorder) (bool, error) {
	progressed := false
	// stallEnds closes the open stall interval, if any, charging its
	// duration in steps. The End kind mirrors the Begin kind recorded
	// when the interval opened (th.stall is already cleared by the time
	// the blocked op finally completes, so it cannot be consulted here) —
	// this keeps full/empty stall accounting symmetric with the
	// concurrent runtime on bounded-queue runs.
	stallEnds := func(q int) {
		if !th.inStall {
			return
		}
		th.inStall = false
		kind := obs.KStallEmptyEnd
		if th.stallWasFull {
			kind = obs.KStallFullEnd
		}
		rec.Record(obs.Event{Kind: kind, Thread: int32(ti), Queue: int32(q),
			When: *total, Arg: *total - th.stallStart})
	}
	for i := 0; i < n; i++ {
		if th.done || *total >= maxSteps {
			return progressed, nil
		}
		if th.pc >= len(th.block.Instrs) {
			// Fall through to the next block in layout order.
			next := NextBlock(th.res.Fn, th.block)
			if next == nil {
				return progressed, fmt.Errorf("fell off the end of block %s", th.block.Name)
			}
			th.block, th.pc = next, 0
			continue
		}
		in := th.block.Instrs[th.pc]
		ev := Event{In: in}

		switch in.Op {
		case ir.OpConsume:
			q := getQueue(in.Queue)
			if q.empty() {
				if rec != nil && !th.inStall {
					th.inStall, th.stallWasFull, th.stallStart = true, false, *total
					rec.Record(obs.Event{Kind: obs.KStallEmptyBegin,
						Thread: int32(ti), Queue: int32(in.Queue), When: *total})
				}
				th.stall, th.stallQueue = stallEmpty, in.Queue
				return progressed, nil
			}
			th.stall = stallNone
			v := q.pop()
			if rec != nil {
				stallEnds(in.Queue)
				rec.Record(obs.Event{Kind: obs.KConsume, Thread: int32(ti),
					Queue: int32(in.Queue), When: *total, Arg: int64(q.occupancy())})
			}
			if in.Dst != ir.NoReg {
				th.regs[in.Dst] = v
			}
			th.pc++
		case ir.OpProduce:
			q := getQueue(in.Queue)
			if q.full() {
				if rec != nil && !th.inStall {
					th.inStall, th.stallWasFull, th.stallStart = true, true, *total
					rec.Record(obs.Event{Kind: obs.KStallFullBegin,
						Thread: int32(ti), Queue: int32(in.Queue), When: *total})
				}
				th.stall, th.stallQueue = stallFull, in.Queue
				return progressed, nil
			}
			th.stall = stallNone
			v := int64(0)
			if len(in.Src) > 0 {
				v = th.regs[in.Src[0]]
			}
			q.push(v)
			if rec != nil {
				stallEnds(in.Queue)
				rec.Record(obs.Event{Kind: obs.KProduce, Thread: int32(ti),
					Queue: int32(in.Queue), When: *total, Arg: int64(q.occupancy())})
			}
			th.pc++
		case ir.OpBranch:
			taken := th.regs[in.Src[0]] != 0
			ev.Taken = taken
			from := th.block
			if taken {
				th.block, th.pc = in.Target, 0
			} else {
				th.block, th.pc = in.TargetFalse, 0
			}
			backEdge := th.blockIdx[th.block] <= th.blockIdx[from]
			if backEdge && th.block == th.outerHdr {
				th.iters++
			}
			if rec != nil {
				arg := int64(0)
				if taken {
					arg = 1
				}
				rec.Record(obs.Event{Kind: obs.KBranch, Thread: int32(ti), Queue: -1,
					When: *total, Arg: arg})
				if backEdge {
					rec.Record(obs.Event{Kind: obs.KIteration, Thread: int32(ti), Queue: -1, When: *total})
				}
			}
		case ir.OpJump:
			ev.Taken = true
			from := th.block
			th.block, th.pc = in.Target, 0
			backEdge := th.blockIdx[th.block] <= th.blockIdx[from]
			if backEdge && th.block == th.outerHdr {
				th.iters++
			}
			if rec != nil && backEdge {
				rec.Record(obs.Event{Kind: obs.KIteration, Thread: int32(ti), Queue: -1, When: *total})
			}
		case ir.OpRet:
			th.done = true
			th.pc++
		case ir.OpLoad:
			addr := th.regs[in.Src[0]] + in.Imm
			ev.Addr = addr
			v, err := mem.Load(addr)
			if err != nil {
				return progressed, fmt.Errorf("%s: %w", in, err)
			}
			th.regs[in.Dst] = v
			th.pc++
		case ir.OpStore:
			addr := th.regs[in.Src[1]] + in.Imm
			ev.Addr = addr
			if err := mem.Store(addr, th.regs[in.Src[0]]); err != nil {
				return progressed, fmt.Errorf("%s: %w", in, err)
			}
			th.pc++
		case ir.OpCall:
			// Opaque call: functionally a no-op; timing charges Imm.
			th.pc++
		default:
			th.regs[in.Dst] = EvalALU(in, th.regs)
			th.pc++
		}

		th.res.Counts[in.ID]++
		th.res.Steps++
		*total++
		progressed = true
		if trace {
			th.res.Trace = append(th.res.Trace, ev)
		}
		if th.done && rec != nil {
			rec.Record(obs.Event{Kind: obs.KStageDone, Thread: int32(ti), Queue: -1,
				When: *total, Arg: th.res.Steps})
		}
	}
	return progressed, nil
}

// NextBlock returns the fall-through successor of b in layout order, or
// nil at the end of the function. Exported so the concurrent runtime
// (internal/runtime) shares the interpreter's fall-through semantics.
func NextBlock(f *ir.Function, b *ir.Block) *ir.Block {
	for i, bb := range f.Blocks {
		if bb == b {
			if i+1 < len(f.Blocks) {
				return f.Blocks[i+1]
			}
			return nil
		}
	}
	return nil
}

// EvalALU evaluates a non-memory, non-flow, non-control instruction over
// regs. It is the single source of truth for ALU semantics, shared by this
// interpreter and the concurrent runtime in internal/runtime.
func EvalALU(in *ir.Instr, regs []int64) int64 {
	get := func(i int) int64 { return regs[in.Src[i]] }
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	switch in.Op {
	case ir.OpConst:
		return in.Imm
	case ir.OpMove:
		return get(0)
	case ir.OpAdd:
		return get(0) + get(1)
	case ir.OpSub:
		return get(0) - get(1)
	case ir.OpMul:
		return get(0) * get(1)
	case ir.OpDiv:
		if get(1) == 0 {
			return 0
		}
		return get(0) / get(1)
	case ir.OpRem:
		if get(1) == 0 {
			return 0
		}
		return get(0) % get(1)
	case ir.OpAnd:
		return get(0) & get(1)
	case ir.OpOr:
		return get(0) | get(1)
	case ir.OpXor:
		return get(0) ^ get(1)
	case ir.OpShl:
		return get(0) << (uint64(get(1)) & 63)
	case ir.OpShr:
		return get(0) >> (uint64(get(1)) & 63)
	case ir.OpNeg:
		return -get(0)
	case ir.OpNot:
		return ^get(0)
	case ir.OpCmpEQ:
		return b2i(get(0) == get(1))
	case ir.OpCmpNE:
		return b2i(get(0) != get(1))
	case ir.OpCmpLT:
		return b2i(get(0) < get(1))
	case ir.OpCmpLE:
		return b2i(get(0) <= get(1))
	case ir.OpCmpGT:
		return b2i(get(0) > get(1))
	case ir.OpCmpGE:
		return b2i(get(0) >= get(1))
	case ir.OpFAdd:
		return ir.F2I(ir.I2F(get(0)) + ir.I2F(get(1)))
	case ir.OpFSub:
		return ir.F2I(ir.I2F(get(0)) - ir.I2F(get(1)))
	case ir.OpFMul:
		return ir.F2I(ir.I2F(get(0)) * ir.I2F(get(1)))
	case ir.OpFDiv:
		return ir.F2I(ir.I2F(get(0)) / ir.I2F(get(1)))
	case ir.OpFCmpLT:
		return b2i(ir.I2F(get(0)) < ir.I2F(get(1)))
	case ir.OpFCmpGT:
		return b2i(ir.I2F(get(0)) > ir.I2F(get(1)))
	case ir.OpIToF:
		return ir.F2I(float64(get(0)))
	case ir.OpFToI:
		return int64(ir.I2F(get(0)))
	}
	panic(fmt.Sprintf("interp: unhandled op %s", in.Op))
}
