package validate

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/profile"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/workloads"
)

// TestSuiteDifferential is the acceptance sweep: every built-in workload,
// queue capacities {1, 2, 32}, and (in full mode) 20 randomized
// fault/schedule seeds per program, all diffed against sequential
// execution. The seed is logged so any failure replays from the test log.
func TestSuiteDifferential(t *testing.T) {
	opts := Options{Seed: 20260805, Logf: t.Logf}
	if testing.Short() {
		opts.FaultRuns = 5
		opts.Caps = []int{1, 32}
	}
	applied := 0
	for _, rep := range Suite(opts) {
		if rep.Skipped != "" {
			t.Logf("%s", rep)
			continue
		}
		applied++
		if !rep.OK() {
			t.Errorf("%s", rep)
		}
	}
	if applied == 0 {
		t.Fatal("no workload was actually transformed and validated")
	}
}

// TestCapacityOneEveryWorkload: pipeline output equals sequential output
// at queue capacity 1 on both of the concurrent runtime's substrates, for
// every workload DSWP applies to.
func TestCapacityOneEveryWorkload(t *testing.T) {
	for _, p := range AllPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			iopts := p.Options()
			base, err := interp.Run(p.F, iopts)
			if err != nil {
				t.Fatal(err)
			}
			prof, err := profile.Collect(p.F, p.Options())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{SkipProfitability: true})
			if err != nil {
				t.Skipf("DSWP not applicable: %v", err)
			}
			compare := func(tag string, res *interp.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if d := base.Mem.Diff(res.Mem); d != -1 {
					t.Fatalf("%s: memory diverges at word %d", tag, d)
				}
				for r, v := range base.LiveOuts {
					if res.LiveOuts[r] != v {
						t.Fatalf("%s: live-out %s = %d, want %d", tag, r, res.LiveOuts[r], v)
					}
				}
			}
			for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
				res, err := rt.Run(tr.Threads, rt.Options{QueueCap: 1, Queue: kind, Mem: p.Mem, Regs: p.Regs})
				compare(fmt.Sprintf("runtime %s cap=1", kind), res, err)
			}
		})
	}
}

// singleSCC builds a loop whose entire body is one dependence cycle, so
// DSWP must decline it (Figure 3 step 3).
func singleSCC() *workloads.Program {
	b := ir.NewBuilder("single_scc")
	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	i, r, tmp := b.F.NewReg(), b.F.NewReg(), b.F.NewReg()
	b.SetBlock(pre)
	b.ConstTo(i, 0)
	b.ConstTo(r, 1)
	limit := b.Const(20)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, limit)
	b.Br(p, body, exit)

	b.SetBlock(body)
	b.AddTo(r, r, i)
	b.BinTo(ir.OpAnd, tmp, r, one)
	b.AddTo(i, i, tmp)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{r}
	b.F.MustVerify()
	return &workloads.Program{Name: "single-scc", F: b.F, LoopHeader: "header", Mem: interp.MemoryFor(b.F)}
}

func TestSkipsSingleSCC(t *testing.T) {
	rep := Program(singleSCC(), Options{Seed: 7})
	if rep.Skipped == "" {
		t.Fatalf("expected single-SCC loop to be skipped, got %s", rep)
	}
	if !rep.OK() {
		t.Fatalf("skipped report should be OK: %s", rep)
	}
	if !strings.Contains(rep.String(), "skipped") {
		t.Fatalf("report string %q should mention skip", rep)
	}
}

// TestReportEchoesSeed: reproducibility contract — the seed appears in the
// report so a failing sweep can be replayed exactly.
func TestReportEchoesSeed(t *testing.T) {
	var logged []string
	opts := Options{Seed: 99, FaultRuns: 1, Caps: []int{2},
		Logf: func(f string, a ...any) { logged = append(logged, strings.TrimSpace(f)) }}
	rep := Program(workloads.ListTraversal(200), opts)
	if rep.Seed != 99 {
		t.Fatalf("report seed = %d, want 99", rep.Seed)
	}
	if !rep.OK() {
		t.Fatalf("list traversal should validate: %s", rep)
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "seed=%d") {
		t.Fatalf("expected seed in log preamble, got %v", logged)
	}
}

// TestProgramExternalContext pins the engine-facing contract: a sweep
// under an already-expired external context aborts immediately instead of
// running the legs, and records no spurious failures.
func TestProgramExternalContext(t *testing.T) {
	done, cancel := context.WithCancel(context.Background())
	cancel()
	p := workloads.ListTraversal(64)
	rep := Program(p, Options{Ctx: done, Seed: 7, FaultRuns: 3, Caps: []int{1, 2}})
	if !rep.Aborted {
		t.Fatalf("sweep under an expired context was not marked aborted: %s", rep)
	}
	if !rep.OK() {
		t.Fatalf("aborted sweep recorded failures: %s", rep)
	}
	if !strings.Contains(rep.String(), "aborted") {
		t.Fatalf("report string does not mention the abort: %s", rep)
	}

	// A generous deadline must not perturb the sweep at all.
	ctx, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	rep = Program(p, Options{Ctx: ctx, Seed: 7, FaultRuns: 3, Caps: []int{1, 2}})
	if rep.Aborted || !rep.OK() {
		t.Fatalf("sweep under a 1m deadline misbehaved: %s", rep)
	}
}
