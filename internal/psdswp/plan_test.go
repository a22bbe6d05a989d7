package psdswp_test

import (
	"context"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/profile"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/workloads"
)

// TestSearchPartitionHashRed pins the directed-partition path end to end
// on the workload built for it: SearchPartition must find the
// induction | hash-chain | reduction split (heavy replicable middle), and
// the replicated pipeline — the only shape in the suite with a fan-in
// merge into a downstream consumer — must stay bit-identical to the
// sequential loop across widths, packings, queue kinds, and caps.
func TestSearchPartitionHashRed(t *testing.T) {
	p := workloads.HashRed()
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	want := workloads.StateDigest(base)

	for _, pack := range []bool{false, true} {
		a, err := core.Analyze(p.F, p.LoopHeader, prof, core.Config{
			NumThreads: 3, SkipProfitability: true, PackFlows: pack,
		})
		if err != nil {
			t.Fatal(err)
		}
		part, tr, rep, err := psdswp.SearchPartition(a, 3)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stage != 1 {
			t.Fatalf("pack=%v: replicated stage %d, want the middle stage", pack, rep.Stage)
		}
		if rep.Width < 2 {
			t.Fatalf("pack=%v: width %d, want >= 2", pack, rep.Width)
		}
		// The search must beat TPP's balance split: the middle stage holds
		// the hash chain, so it outweighs both neighbours.
		w := part.StageWeights()
		if w[1] <= w[0] || w[1] <= w[2] {
			t.Fatalf("pack=%v: weights %v, want a dominant middle stage", pack, w)
		}

		for _, width := range []int{2, 3, 4} {
			res, err := psdswp.Replicate(tr, rep.Stage, width)
			if err != nil {
				t.Fatalf("pack=%v width=%d: %v", pack, width, err)
			}
			run, err := interp.RunThreads(res.Tr.Threads, p.Options())
			if err != nil {
				t.Fatalf("pack=%v w=%d: %v", pack, width, err)
			}
			if got := workloads.StateDigest(run); got != want {
				t.Fatalf("pack=%v w=%d: digest %x, want %x", pack, width, got, want)
			}
			for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
				for _, cap := range []int{0, 1, 2, 32} {
					ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
					run, err := rt.RunCtx(ctx, res.Tr.Threads, rt.Options{
						Mem: p.Mem.Clone(), Regs: p.Regs, Queue: kind, QueueCap: cap,
					})
					cancel()
					if err != nil {
						t.Fatalf("rt pack=%v w=%d %s cap=%d: %v", pack, width, kind, cap, err)
					}
					if got := workloads.StateDigest(run); got != want {
						t.Fatalf("rt pack=%v w=%d %s cap=%d: digest %x, want %x", pack, width, kind, cap, got, want)
					}
				}
			}
		}
	}
}

func TestSearchPartitionErrors(t *testing.T) {
	p := workloads.HashRed()
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(p.F, p.LoopHeader, prof, core.Config{NumThreads: 3, SkipProfitability: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := psdswp.SearchPartition(a, 4); err == nil {
		t.Fatal("stages=4 should be rejected")
	}
	if _, _, _, err := psdswp.SearchPartition(a, 1); err == nil {
		t.Fatal("stages=1 should be rejected")
	}
}
