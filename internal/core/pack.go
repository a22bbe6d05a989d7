package core

import (
	"sort"

	"dswp/internal/ir"
)

// Flow packing (SplitOptions.PackFlows) coalesces multiple flows between
// the same (producer thread, consumer thread) pair at the same program
// point into one multi-word packet on a single shared queue, so a
// pipeline needs fewer queues for the same values. The runtime moves a
// packet one value per flow instruction, like any other flow, and scales
// the shared queue's capacity by the packet width.
//
// Soundness rests on never changing the relative order of flow operations
// within a block:
//
//   - Only queues with exactly one static produce site and one static
//     consume site are candidates (multi-site queues — final flows of
//     multi-exit loops, master-loop queues — are excluded).
//   - A packet is a run of candidate produces to the same consumer thread
//     with only non-flow instructions between them. The earlier produces
//     sink past those gap instructions to join the last one; a gap that
//     defines a register some earlier produce reads ends the run (the sink
//     would change the produced value). Sinking a produce adds ordering at
//     the consumer (its value arrives with the packet) and removes none,
//     and since no flow op is crossed, the producer/consumer flow-op order
//     isomorphism that makes the split deadlock-free is preserved at every
//     queue capacity >= 1.
//   - The matching consumes must already be contiguous in the consumer
//     block; they are permuted into the packet's value order, which is
//     legal because adjacent consumes of distinct queues with distinct
//     destination registers commute.
//
// After merging, queue numbers are compacted and Transformed.Flows,
// NumQueues, and PassStats (packed/unpacked flow counts) are updated.

// packSite is one static flow-op location in a thread function.
type packSite struct {
	thread int
	block  *ir.Block
	idx    int
}

// packet is one packing decision, captured before any rewriting: the
// produce run in program order, the matching consumes permuted into the
// same order, and the original queue number of each member (queues[0]
// becomes the packet's shared queue).
type packet struct {
	prods  []*ir.Instr
	cons   []*ir.Instr
	queues []int
}

func packFlows(tr *Transformed) {
	numQBefore := tr.NumQueues
	prodSites := make([][]packSite, numQBefore)
	consSites := make([][]packSite, numQBefore)
	for ti, fn := range tr.Threads {
		for _, b := range fn.Blocks {
			for i, in := range b.Instrs {
				switch in.Op {
				case ir.OpProduce:
					prodSites[in.Queue] = append(prodSites[in.Queue], packSite{ti, b, i})
				case ir.OpConsume:
					consSites[in.Queue] = append(consSites[in.Queue], packSite{ti, b, i})
				}
			}
		}
	}
	candidate := make([]bool, numQBefore)
	for q := range candidate {
		candidate[q] = len(prodSites[q]) == 1 && len(consSites[q]) == 1 &&
			prodSites[q][0].thread != consSites[q][0].thread
	}

	// Decision phase: scan every block for packable produce runs against
	// the immutable site snapshot.
	var packets []packet
	for _, fn := range tr.Threads {
		for _, b := range fn.Blocks {
			var run []*ir.Instr
			runTo := -1
			srcRead := map[ir.Reg]bool{}
			flush := func() {
				if len(run) >= 2 {
					if p, ok := matchConsumes(run, consSites); ok {
						packets = append(packets, p)
					}
				}
				run = run[:0]
				runTo = -1
				srcRead = map[ir.Reg]bool{}
			}
			for _, in := range b.Instrs {
				switch {
				case in.Op == ir.OpProduce && candidate[in.Queue]:
					to := consSites[in.Queue][0].thread
					if runTo != -1 && to != runTo {
						flush()
					}
					run = append(run, in)
					runTo = to
					for _, r := range in.Src {
						srcRead[r] = true
					}
				case in.Op.IsFlow():
					// A foreign flow op (any consume, or a produce on a
					// multi-site queue) must never be crossed.
					flush()
				default:
					// A gap instruction the earlier produces would sink
					// past: legal unless it defines a register one of
					// them reads.
					if len(run) > 0 && in.Dst != ir.NoReg && srcRead[in.Dst] {
						flush()
					}
				}
			}
			flush()
		}
	}
	if len(packets) == 0 {
		finishPackStats(tr, numQBefore, 0, 0)
		return
	}

	// Application phase, by instruction pointer so packets in the same
	// block cannot invalidate each other (packet instruction sets are
	// disjoint by construction).
	for _, p := range packets {
		shared := p.queues[0]
		inPack := make(map[*ir.Instr]bool, len(p.prods))
		for _, in := range p.prods {
			inPack[in] = true
		}
		// Producer block: sink the run's produces to the last one's slot.
		pb := p.prods[0].Block
		last := p.prods[len(p.prods)-1]
		rebuilt := make([]*ir.Instr, 0, len(pb.Instrs))
		for _, in := range pb.Instrs {
			switch {
			case in == last:
				for _, pr := range p.prods {
					pr.Queue = shared
					rebuilt = append(rebuilt, pr)
				}
			case inPack[in]:
				// moved down to last's slot
			default:
				rebuilt = append(rebuilt, in)
			}
		}
		pb.Instrs = rebuilt
		// Consumer block: permute the contiguous consume slice into
		// packet order and retarget it at the shared queue.
		cb := p.cons[0].Block
		inCons := make(map[*ir.Instr]bool, len(p.cons))
		for _, in := range p.cons {
			inCons[in] = true
		}
		lo := -1
		for i, in := range cb.Instrs {
			if inCons[in] {
				lo = i
				break
			}
		}
		for i, in := range p.cons {
			in.Queue = shared
			cb.Instrs[lo+i] = in
		}
	}

	// Compact queue numbering across threads and flows. Merged queues
	// first map to their packet's shared queue, then everything renumbers
	// densely.
	sharedOf := map[int]int{}
	packedFlows := 0
	for _, p := range packets {
		packedFlows += len(p.queues)
		for _, q := range p.queues {
			sharedOf[q] = p.queues[0]
		}
	}
	used := map[int]bool{}
	for _, fn := range tr.Threads {
		fn.Instrs(func(in *ir.Instr) {
			if in.Op.IsFlow() {
				used[in.Queue] = true
			}
		})
	}
	olds := make([]int, 0, len(used))
	for q := range used {
		olds = append(olds, q)
	}
	sort.Ints(olds)
	renum := make(map[int]int, len(olds))
	for i, q := range olds {
		renum[q] = i
	}
	for _, fn := range tr.Threads {
		fn.Instrs(func(in *ir.Instr) {
			if in.Op.IsFlow() {
				in.Queue = renum[in.Queue]
			}
		})
	}
	for fi := range tr.Flows {
		f := &tr.Flows[fi]
		q := f.Queue
		if sh, ok := sharedOf[q]; ok {
			q = sh
		}
		f.Queue = renum[q]
	}
	tr.NumQueues = len(olds)
	finishPackStats(tr, numQBefore, packedFlows, len(packets))
}

// matchConsumes checks the consumer side of a candidate produce run: every
// matching consume must sit in one thread, one block, on contiguous
// instruction slots, with pairwise-distinct destination registers (NoReg
// excepted), so the slice can be permuted into the packet's value order.
func matchConsumes(run []*ir.Instr, consSites [][]packSite) (packet, bool) {
	first := consSites[run[0].Queue][0]
	idxs := make([]int, len(run))
	cons := make([]*ir.Instr, len(run))
	queues := make([]int, len(run))
	seenDst := map[ir.Reg]bool{}
	for i, pr := range run {
		s := consSites[pr.Queue][0]
		if s.thread != first.thread || s.block != first.block {
			return packet{}, false
		}
		c := s.block.Instrs[s.idx]
		if c.Dst != ir.NoReg {
			if seenDst[c.Dst] {
				return packet{}, false
			}
			seenDst[c.Dst] = true
		}
		idxs[i] = s.idx
		cons[i] = c
		queues[i] = pr.Queue
	}
	sorted := append([]int(nil), idxs...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1]+1 {
			return packet{}, false
		}
	}
	return packet{prods: append([]*ir.Instr(nil), run...), cons: cons, queues: queues}, true
}

// finishPackStats records the packing outcome in the pass self-report.
func finishPackStats(tr *Transformed, numQBefore, packedFlows, numPackets int) {
	if tr.Stats == nil {
		return
	}
	tr.Stats.PackedFlows = packedFlows
	tr.Stats.UnpackedFlows = numQBefore - packedFlows
	tr.Stats.FlowPackets = numPackets
	tr.Stats.QueuesMerged = numQBefore - tr.NumQueues
	tr.Stats.Queues = tr.NumQueues
}
