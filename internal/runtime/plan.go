package runtime

import (
	"fmt"

	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/queue"
)

// Plan is the static execution plan for one transformed pipeline: every
// per-run-invariant analysis the engine's build step used to redo on each
// Run — queue topology (static produce/consume sites), flow-packing
// packet widths, each thread's queue ends, and each thread's lowered
// interp.Code (pre-decoded ops, branch targets, back-edge flags and
// outer-loop header). A Plan is immutable after construction
// and safe to share across any number of concurrent runs of the same
// thread functions, which is what makes the serving engine's
// compiled-pipeline cache pay: N requests for the same loop do this work
// exactly once.
type Plan struct {
	fns       []*ir.Function
	numQueues int
	// packWidth[q] is the largest number of produce ops a single block
	// issues on queue q (the flow-packing packet size; 1 when unpacked).
	packWidth []int
	prods     [][]int // queue -> producing thread indices
	cons      [][]int // queue -> consuming thread indices
	// produces[t] and consumes[t] are the queues thread t produces to
	// and consumes from, ascending: the ends its flush publishes.
	produces [][]int
	consumes [][]int
	// code[t] is thread t's lowered function, the form its stage loop
	// executes.
	code []*interp.Code
	topo *Topology
}

// NewPlan analyzes fns into a reusable static plan. It performs the same
// validation Run does (every thread needs an entry block).
func NewPlan(fns []*ir.Function) (*Plan, error) {
	if len(fns) == 0 {
		return nil, fmt.Errorf("runtime: no threads")
	}
	p := &Plan{fns: fns, code: make([]*interp.Code, len(fns))}
	for i, fn := range fns {
		if fn.Entry() == nil {
			return nil, fmt.Errorf("runtime: thread %d has no entry block", i)
		}
		c, err := interp.Lower(fn)
		if err != nil {
			return nil, fmt.Errorf("runtime: thread %d: %w", i, err)
		}
		p.code[i] = c
		p.numQueues = max(p.numQueues, c.NumQueues)
	}
	p.packWidth = make([]int, p.numQueues)
	for _, fn := range fns {
		for _, b := range fn.Blocks {
			per := map[int]int{}
			for _, in := range b.Instrs {
				if in.Op == ir.OpProduce {
					per[in.Queue]++
				}
			}
			for q, n := range per {
				if n > p.packWidth[q] {
					p.packWidth[q] = n
				}
			}
		}
	}
	p.prods = make([][]int, p.numQueues)
	p.cons = make([][]int, p.numQueues)
	p.produces = make([][]int, len(fns))
	p.consumes = make([][]int, len(fns))
	for ti, fn := range fns {
		prod := make([]bool, p.numQueues)
		cons := make([]bool, p.numQueues)
		fn.Instrs(func(in *ir.Instr) {
			switch in.Op {
			case ir.OpProduce:
				prod[in.Queue] = true
			case ir.OpConsume:
				cons[in.Queue] = true
			}
		})
		for q := range prod {
			if prod[q] {
				p.prods[q] = append(p.prods[q], ti)
				p.produces[ti] = append(p.produces[ti], q)
			}
			if cons[q] {
				p.cons[q] = append(p.cons[q], ti)
				p.consumes[ti] = append(p.consumes[ti], q)
			}
		}
	}
	return p, nil
}

// NumQueues is the pipeline's synchronization-array footprint.
func (p *Plan) NumQueues() int { return p.numQueues }

// NumThreads is the pipeline depth.
func (p *Plan) NumThreads() int { return len(p.fns) }

// capFor is the effective capacity of queue q: the requested per-queue
// capacity (0 = DefaultQueueCap), scaled by the flow-packing packet width
// so packed queues keep the same iterations of decoupling slack.
func (p *Plan) capFor(q, queueCap int) int {
	c := queueCap
	if c <= 0 {
		c = DefaultQueueCap
	}
	if w := p.packWidth[q]; w > 1 {
		c *= w
	}
	return c
}

// QueueSize is queue q's geometry in a run of the given kind and
// per-queue capacity (0 = DefaultQueueCap): the substrate it gets — kind,
// except that a queue with more than one static producer or consumer
// thread falls back to a channel where the SPSC ring would be unsound —
// its logical capacity (capFor), and the int64 slots that substrate
// allocates for it. NewInstance sizes its queues by it and the serving
// engine's memory governor charges by it, so the two cannot disagree.
func (p *Plan) QueueSize(q int, kind queue.Kind, queueCap int) (k queue.Kind, capacity, slots int) {
	k, capacity = kind, p.capFor(q, queueCap)
	if k == queue.KindRing && (len(p.prods[q]) > 1 || len(p.cons[q]) > 1) {
		k = queue.KindChannel
	}
	return k, capacity, queue.Slots(k, capacity)
}

// matches reports whether fns is the thread list this plan was built for.
// Identity comparison is deliberate: a plan holds pointers into the
// functions' blocks, so structurally-equal clones are not interchangeable.
func (p *Plan) matches(fns []*ir.Function) bool {
	if len(fns) != len(p.fns) {
		return false
	}
	for i := range fns {
		if fns[i] != p.fns[i] {
			return false
		}
	}
	return true
}

// Instance is the warm, reusable per-run state of one pipeline: the
// synchronization-array queues plus every per-thread allocation a run
// mutates (register files and per-instruction retirement counts). The
// serving engine pools instances so steady-state requests execute without
// rebuilding any of it; Reset restores the freshly-built state between
// runs, and Verify checks that claim against what a fresh build would be.
//
// An Instance is single-run at a time: it must not be shared by two
// concurrent runs, and Reset/Verify require the instance to be quiescent
// (the run using it has fully returned).
type Instance struct {
	plan     *Plan
	kind     queue.Kind
	queueCap int // normalized (never 0)
	queues   []queue.Queue
	regs     [][]int64
	counts   [][]int64
}

// NewInstance allocates run state for this plan: one queue per
// synchronization-array cell (queueCap 0 = DefaultQueueCap, scaled for
// packed queues) and per-thread register files and retirement-count
// arrays.
func (p *Plan) NewInstance(kind queue.Kind, queueCap int) *Instance {
	if queueCap <= 0 {
		queueCap = DefaultQueueCap
	}
	in := &Instance{plan: p, kind: kind, queueCap: queueCap}
	in.queues = make([]queue.Queue, p.numQueues)
	for q := range in.queues {
		k, c, _ := p.QueueSize(q, kind, queueCap)
		in.queues[q] = queue.New(k, c)
	}
	in.regs = make([][]int64, len(p.fns))
	in.counts = make([][]int64, len(p.fns))
	for i, fn := range p.fns {
		in.regs[i] = padded(int(fn.MaxReg()) + 1)
		in.counts[i] = padded(fn.NumInstrIDs())
	}
	return in
}

// Plan returns the plan this instance was allocated for.
func (in *Instance) Plan() *Plan { return in.plan }

// Reset restores the instance to its freshly-allocated state: queues
// emptied (a failed or canceled run may have left values and parked-wake
// tokens behind), register files and retirement counts zeroed. Quiescent
// callers only.
func (in *Instance) Reset() {
	for _, q := range in.queues {
		q.Reset()
	}
	for _, regs := range in.regs {
		clear(regs)
	}
	for _, counts := range in.counts {
		clear(counts)
	}
}

// Verify checks that the instance is indistinguishable from a fresh
// NewInstance: every queue empty with the right capacity, every register
// and count zero. The warm-pool reset-safety argument rests on this being
// the complete mutable state a run touches through the instance; the
// engine's pool tests call it after Reset and diff pooled-instance runs
// against fresh-instance runs bit for bit.
func (in *Instance) Verify() error {
	for q, qu := range in.queues {
		if n := qu.Len(); n != 0 {
			return fmt.Errorf("runtime: instance queue %d not empty (%d values)", q, n)
		}
		if want := in.plan.capFor(q, in.queueCap); qu.Cap() != want {
			return fmt.Errorf("runtime: instance queue %d capacity %d, want %d", q, qu.Cap(), want)
		}
	}
	for ti, regs := range in.regs {
		for r, v := range regs {
			if v != 0 {
				return fmt.Errorf("runtime: instance thread %d register r%d = %d, want 0", ti, r, v)
			}
		}
	}
	for ti, counts := range in.counts {
		for id, v := range counts {
			if v != 0 {
				return fmt.Errorf("runtime: instance thread %d count[%d] = %d, want 0", ti, id, v)
			}
		}
	}
	return nil
}

// padded allocates n zeroed words with a cache line of slack on either
// side. Every stage writes its register file and retirement counts on
// nearly every instruction; the slack keeps another thread's allocation
// from sharing their first or last cache line.
func padded(n int) []int64 {
	buf := make([]int64, n+16)
	return buf[8 : 8+n : 8+n]
}
