package core

import (
	"testing"

	"dswp/internal/ir"
	"dswp/internal/workloads"
)

// TestPackFlowsStats pins the packing outcome on the pointer-chase list
// traversal: the transform emits five queues (control, loop data, initial
// flows, final sum), and packing coalesces the two same-point pairs —
// producer-loop {control, data} and the initial-value pair — leaving the
// multi-site final flow unpacked. 5 queues -> 3, 4 flows in 2 packets.
func TestPackFlowsStats(t *testing.T) {
	p := workloads.ListTraversal(500)
	plain := applyDSWP(t, p, Config{SkipProfitability: true})
	packed := applyDSWP(t, p, Config{SkipProfitability: true, PackFlows: true})

	if plain.NumQueues != 5 {
		t.Fatalf("unpacked NumQueues = %d, want 5 (test workload drifted)", plain.NumQueues)
	}
	if packed.NumQueues != 3 {
		t.Errorf("packed NumQueues = %d, want 3", packed.NumQueues)
	}
	st := packed.Stats
	if st == nil {
		t.Fatal("packed transform has no PassStats")
	}
	if st.PackedFlows != 4 {
		t.Errorf("PackedFlows = %d, want 4", st.PackedFlows)
	}
	if st.FlowPackets != 2 {
		t.Errorf("FlowPackets = %d, want 2", st.FlowPackets)
	}
	if st.UnpackedFlows != 1 {
		t.Errorf("UnpackedFlows = %d, want 1", st.UnpackedFlows)
	}
	if st.PackedFlows+st.UnpackedFlows != plain.NumQueues {
		t.Errorf("PackedFlows+UnpackedFlows = %d, want pre-pack queue count %d",
			st.PackedFlows+st.UnpackedFlows, plain.NumQueues)
	}
	if st.QueuesMerged != plain.NumQueues-packed.NumQueues {
		t.Errorf("QueuesMerged = %d, want %d", st.QueuesMerged, plain.NumQueues-packed.NumQueues)
	}
	if st.Queues != packed.NumQueues {
		t.Errorf("Stats.Queues = %d, want NumQueues %d", st.Queues, packed.NumQueues)
	}
}

// TestPackFlowsShape checks the packed IR invariants: dense queue
// numbering, every Flow remapped into range, and each merged queue's
// produces and consumes forming contiguous same-queue runs (one packet
// per block visit).
func TestPackFlowsShape(t *testing.T) {
	p := workloads.ListTraversal(500)
	tr := applyDSWP(t, p, Config{SkipProfitability: true, PackFlows: true})

	used := map[int]bool{}
	for _, fn := range tr.Threads {
		fn.Instrs(func(in *ir.Instr) {
			if in.Op.IsFlow() {
				if in.Queue < 0 || in.Queue >= tr.NumQueues {
					t.Errorf("flow op queue %d out of range [0,%d)", in.Queue, tr.NumQueues)
				}
				used[in.Queue] = true
			}
		})
	}
	if len(used) != tr.NumQueues {
		t.Errorf("IR uses %d distinct queues, NumQueues = %d", len(used), tr.NumQueues)
	}
	for _, f := range tr.Flows {
		if f.Queue < 0 || f.Queue >= tr.NumQueues {
			t.Errorf("flow record queue %d out of range [0,%d)", f.Queue, tr.NumQueues)
		}
	}

	// Count flows per queue; merged queues carry >1 flow and their static
	// ops must be contiguous runs in both endpoint blocks.
	flowsPer := map[int]int{}
	for _, f := range tr.Flows {
		flowsPer[f.Queue]++
	}
	merged := 0
	for q, n := range flowsPer {
		if n < 2 {
			continue
		}
		merged++
		for _, fn := range tr.Threads {
			for _, b := range fn.Blocks {
				for _, op := range []ir.Op{ir.OpProduce, ir.OpConsume} {
					first, last, count := -1, -1, 0
					for i, in := range b.Instrs {
						if in.Op == op && in.Queue == q {
							if first == -1 {
								first = i
							}
							last = i
							count++
						}
					}
					if count > 1 && last-first != count-1 {
						t.Errorf("queue %d: %v ops not contiguous in %s (span %d for %d ops)",
							q, op, b.Name, last-first+1, count)
					}
				}
			}
		}
	}
	if merged == 0 {
		t.Error("expected at least one merged (multi-flow) queue on list traversal")
	}
}

// TestPackFlowsEquivalenceSuite runs every Table 1 workload through the
// packing transform and checks memory + live-out equivalence against
// sequential execution — packing must never change results, only queue
// traffic shape.
func TestPackFlowsEquivalenceSuite(t *testing.T) {
	for _, wb := range workloads.Table1Suite() {
		t.Run(wb.Name, func(t *testing.T) {
			p := wb.Build()
			tr := applyDSWP(t, p, Config{SkipProfitability: true, PackFlows: true})
			runBoth(t, p, tr)
		})
	}
}

// TestPackFlowsWithMasterLoop checks packing composes with the §3 master
// loop protocol: protocol queues have multiple static sites and must be
// left alone, while in-loop flows still pack.
func TestPackFlowsWithMasterLoop(t *testing.T) {
	p := workloads.ListTraversal(300)
	tr := applyDSWP(t, p, Config{SkipProfitability: true, MasterLoop: true, PackFlows: true})
	runBoth(t, p, tr)
	if tr.Stats != nil && tr.Stats.PackedFlows == 0 {
		t.Error("expected in-loop flows to pack under the master-loop protocol")
	}
}

// TestPackFlowsNoCandidates: the list-of-lists pipeline interleaves its
// flows with foreign flow ops at every program point, so nothing packs and
// the transform must be byte-for-byte the unpacked one (same queue count,
// zero packets reported).
func TestPackFlowsNoCandidates(t *testing.T) {
	p := workloads.ListOfLists(40, 6)
	plain := applyDSWP(t, p, Config{SkipProfitability: true})
	packed := applyDSWP(t, p, Config{SkipProfitability: true, PackFlows: true})
	if packed.NumQueues != plain.NumQueues {
		t.Errorf("NumQueues = %d, want unchanged %d", packed.NumQueues, plain.NumQueues)
	}
	if st := packed.Stats; st != nil {
		if st.PackedFlows != 0 || st.FlowPackets != 0 || st.QueuesMerged != 0 {
			t.Errorf("expected no packing, got packed=%d packets=%d merged=%d",
				st.PackedFlows, st.FlowPackets, st.QueuesMerged)
		}
		if st.UnpackedFlows != plain.NumQueues {
			t.Errorf("UnpackedFlows = %d, want %d", st.UnpackedFlows, plain.NumQueues)
		}
	}
	runBoth(t, p, packed)
}
