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

// queue is an unbounded FIFO for functional execution. Capacity is a
// timing concern (package sim) and a concurrency concern (the goroutine
// runtime's bounded queues), never the interpreter's: a thread here only
// ever blocks on an empty queue.
type queue struct {
	buf  []int64
	head int
}

func (q *queue) push(v int64) { q.buf = append(q.buf, v) }

func (q *queue) empty() bool { return q.head >= len(q.buf) }

// occupancy returns the number of buffered values.
func (q *queue) occupancy() int { return len(q.buf) - q.head }

func (q *queue) pop() int64 {
	v := q.buf[q.head]
	q.head++
	if q.head > 4096 && q.head*2 > len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return v
}

type thread struct {
	res  *ThreadResult
	code *Code
	regs []int64
	pc   int
	done bool
	// stallQueue is the empty queue the thread last blocked on. In a
	// deadlock every live thread's last burst ended blocked on it.
	stallQueue int

	// iters counts completed outer-loop iterations (back-edge transfers
	// to code.Outer), reported in deadlock diagnostics.
	iters int64
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
			progressed, err := runBurst(th, mem, queues, min(total+burst, maxSteps), &total, opts.RecordTrace)
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
			block, off := th.code.Where(th.pc)
			// A loop-free thread reads -1, as runtime.BlockInfo.Iter does.
			iter := th.iters
			if th.code.Outer < 0 {
				iter = -1
			}
			state = fmt.Sprintf("blocked (StallEmpty q%d) at %s/%s[%d] %q iter=%d",
				th.stallQueue, th.res.Fn.Name, block.Name, off, in, iter)
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
			Queue: id, Len: q.occupancy(),
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

// runBurst executes th until the shared retired-step counter reaches
// end, the thread blocks on an empty queue or it returns; it reports
// whether any instruction retired.
func runBurst(th *thread, mem *Memory, queues []*queue, end int64, total *int64, trace bool) (bool, error) {
	ops, regs, counts, words := th.code.Ops, th.regs, th.res.Counts, mem.Words()
	pc, tot := th.pc, *total
	start := tot
	var addr int64
	var err error
run:
	for tot < end {
		op := &ops[pc]
		switch op.Op {
		case ir.OpConsume:
			q := touch(queues, op.Q)
			if q.empty() {
				th.stallQueue = int(op.Q)
				break run
			}
			v := q.pop()
			if op.Dst >= 0 {
				regs[op.Dst] = v
			}
			pc++
		case ir.OpProduce:
			v := int64(0)
			if op.A >= 0 {
				v = regs[op.A]
			}
			touch(queues, op.Q).push(v)
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
		if trace {
			ev, _ := op.Retired(regs, addr)
			th.res.Trace = append(th.res.Trace, ev)
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
func touch(queues []*queue, id int32) *queue {
	q := queues[id]
	if q == nil {
		q = &queue{}
		queues[id] = q
	}
	return q
}
