package core

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"

	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/profile"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
)

// Random-loop fuzzing: generate structured random loops (counted, with
// random ALU DAGs, nested diamonds, masked-address loads/stores, and an
// iteration-private read-modify-write array) and check that every
// enumerated DSWP partitioning computes exactly the single-threaded
// result. This is the transformation's strongest correctness evidence:
// any placement, flow, or retargeting bug shows up as divergence or
// deadlock on some seed.

type fuzzRNG struct{ s uint64 }

func (r *fuzzRNG) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

func (r *fuzzRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// genLoop builds a random, terminating loop program from a seed.
func genLoop(seed uint64) (*ir.Function, *interp.Memory) {
	rng := &fuzzRNG{s: seed | 1}
	b := ir.NewBuilder(fmt.Sprintf("fuzz_%d", seed))
	scratch := b.F.AddObject("scratch", 256)
	private := b.F.AddObject("private", 128)
	b.F.Objects[private].IterPrivate = true

	nRegs := 4 + rng.intn(5)
	regs := make([]ir.Reg, nRegs)
	for i := range regs {
		regs[i] = b.F.NewReg()
	}
	anyReg := func() ir.Reg { return regs[rng.intn(nRegs)] }

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	// Body block chain is created on demand.
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	iters := int64(8 + rng.intn(40))
	i := b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, 0)
	limit := b.Const(iters)
	one := b.Const(1)
	mask := b.Const(255)
	pmask := b.Const(127)
	scratchBase := b.Const(bases[0])
	privBase := b.Const(bases[1])
	for _, r := range regs {
		b.ConstTo(r, int64(rng.intn(1000))-500)
	}
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, limit)
	body := b.F.NewBlock("body")
	b.Br(p, body, exit)
	b.SetBlock(body)

	aluOps := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpCmpLT, ir.OpCmpEQ, ir.OpDiv, ir.OpRem, ir.OpShr}

	emitALU := func() {
		op := aluOps[rng.intn(len(aluOps))]
		b.BinTo(op, anyReg(), anyReg(), anyReg())
	}
	emitLoad := func() {
		a := b.Bin(ir.OpAnd, anyReg(), mask)
		addr := b.Add(scratchBase, a)
		b.LoadTo(anyReg(), addr, 0, scratch)
	}
	emitStore := func() {
		a := b.Bin(ir.OpAnd, anyReg(), mask)
		addr := b.Add(scratchBase, a)
		b.Store(anyReg(), addr, 0, scratch)
	}
	// Iteration-private read-modify-write of private[i & 127].
	emitPrivateRMW := func() {
		a := b.Bin(ir.OpAnd, i, pmask)
		addr := b.Add(privBase, a)
		v := b.Load(addr, 0, private)
		nv := b.Bin(ir.OpXor, v, anyReg())
		b.Store(nv, addr, 0, private)
	}
	blockCounter := 0
	emitDiamond := func(depth int) {}
	emitDiamond = func(depth int) {
		cond := b.Bin(ir.OpCmpLT, anyReg(), anyReg())
		blockCounter++
		thenB := b.F.NewBlock(fmt.Sprintf("then%d", blockCounter))
		elseB := b.F.NewBlock(fmt.Sprintf("else%d", blockCounter))
		joinB := b.F.NewBlock(fmt.Sprintf("join%d", blockCounter))
		b.Br(cond, thenB, elseB)

		b.SetBlock(thenB)
		for k := 0; k < 1+rng.intn(3); k++ {
			emitALU()
		}
		if depth > 0 && rng.intn(2) == 0 {
			emitDiamond(depth - 1)
		}
		b.Jump(joinB)

		b.SetBlock(elseB)
		for k := 0; k < 1+rng.intn(3); k++ {
			emitALU()
		}
		if rng.intn(3) == 0 {
			emitStore()
		}
		b.Jump(joinB)

		b.SetBlock(joinB)
	}

	nStmts := 3 + rng.intn(8)
	for s := 0; s < nStmts; s++ {
		switch rng.intn(6) {
		case 0:
			emitLoad()
		case 1:
			emitStore()
		case 2:
			emitDiamond(1)
		case 3:
			emitPrivateRMW()
		default:
			emitALU()
		}
	}
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = append([]ir.Reg{}, regs[:2+rng.intn(nRegs-1)]...)
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	for a := bases[0]; a < bases[0]+256; a++ {
		mem.Set(a, int64(rng.intn(512))-256)
	}
	for a := bases[1]; a < bases[1]+128; a++ {
		mem.Set(a, int64(rng.intn(512))-256)
	}
	return b.F, mem
}

// checkSeed runs one fuzz case: baseline vs every enumerated partitioning
// at 2 threads, plus the heuristic at 3.
func checkSeed(t *testing.T, seed uint64) {
	t.Helper()
	f, mem := genLoop(seed)
	opts := interp.Options{Mem: mem, MaxSteps: 50_000_000}
	base, err := interp.Run(f, opts)
	if err != nil {
		t.Fatalf("seed %d: baseline: %v", seed, err)
	}
	prof, err := profile.Collect(f, opts)
	if err != nil {
		t.Fatalf("seed %d: profile: %v", seed, err)
	}
	for _, threads := range []int{2, 3} {
		a, err := Analyze(f, "header", prof, Config{NumThreads: threads})
		if err != nil {
			t.Fatalf("seed %d: analyze: %v", seed, err)
		}
		if a.NumSCCs() < 2 {
			return
		}
		parts := a.Enumerate(12)
		parts = append(parts, a.Heuristic())
		for pi, part := range parts {
			if part.N < 2 {
				continue
			}
			tr, err := a.Transform(part)
			if err != nil {
				t.Fatalf("seed %d t%d part %d: transform: %v", seed, threads, pi, err)
			}
			multi, err := interp.RunThreads(tr.Threads, opts)
			if err != nil {
				for ti, th := range tr.Threads {
					t.Logf("thread %d:\n%s", ti, th)
				}
				t.Fatalf("seed %d t%d part %d (assign %v): run: %v", seed, threads, pi, part.Assign, err)
			}
			if d := base.Mem.Diff(multi.Mem); d != -1 {
				t.Fatalf("seed %d t%d part %d: memory diverges at %d (assign %v)\noriginal:\n%s",
					seed, threads, pi, d, part.Assign, f)
			}
			for r, v := range base.LiveOuts {
				if multi.LiveOuts[r] != v {
					t.Fatalf("seed %d t%d part %d: live-out %s %d != %d (assign %v)",
						seed, threads, pi, r, multi.LiveOuts[r], v, part.Assign)
				}
			}
		}
		if threads != 2 {
			continue
		}
		// True-concurrency differential check: the heuristic partition
		// must also compute the sequential result under the goroutine
		// runtime — real interleavings, bounded queues (down to one
		// slot), both communication substrates, compiler-side flow
		// packing, and seed-derived fault injection — not just under the
		// interpreter's friendly round-robin schedule.
		hp := a.Heuristic()
		if hp.N < 2 {
			continue
		}
		tr, err := a.Transform(hp)
		if err != nil {
			t.Fatalf("seed %d: runtime transform: %v", seed, err)
		}
		trPacked, err := SplitOpt(a.G, hp, SplitOptions{PackFlows: true})
		if err != nil {
			t.Fatalf("seed %d: packed transform: %v", seed, err)
		}
		for _, v := range []struct {
			tag string
			tr  *Transformed
		}{{"", tr}, {"packed ", trPacked}} {
			for _, qcap := range []int{1, 8} {
				for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
					ropts := rt.Options{QueueCap: qcap, Queue: kind, Mem: mem, MaxSteps: 50_000_000}
					if qcap == 1 {
						ropts.Faults = rt.RandomFaults(seed, len(v.tr.Threads), v.tr.NumQueues)
					}
					run, err := rt.Run(v.tr.Threads, ropts)
					if err != nil {
						for ti, th := range v.tr.Threads {
							t.Logf("thread %d:\n%s", ti, th)
						}
						t.Fatalf("seed %d: %sruntime %s cap %d: %v", seed, v.tag, kind, qcap, err)
					}
					if d := base.Mem.Diff(run.Mem); d != -1 {
						t.Fatalf("seed %d: %sruntime %s cap %d: memory diverges at %d (assign %v)\noriginal:\n%s",
							seed, v.tag, kind, qcap, d, hp.Assign, f)
					}
					for r, v2 := range base.LiveOuts {
						if run.LiveOuts[r] != v2 {
							t.Fatalf("seed %d: %sruntime %s cap %d: live-out %s %d != %d",
								seed, v.tag, kind, qcap, r, run.LiveOuts[r], v2)
						}
					}
				}
			}
		}
	}
}

func TestFuzzDSWPEquivalenceFixedSeeds(t *testing.T) {
	// A deterministic sweep so failures reproduce trivially.
	for seed := uint64(1); seed <= 60; seed++ {
		checkSeed(t, seed)
	}
}

func TestFuzzDSWPEquivalenceQuick(t *testing.T) {
	f := func(seed uint64) bool {
		checkSeed(t, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestFuzzGeneratorIsDeterministic pins the generator so failing seeds
// stay reproducible across runs.
func TestFuzzGeneratorIsDeterministic(t *testing.T) {
	f1, _ := genLoop(12345)
	f2, _ := genLoop(12345)
	if f1.String() != f2.String() {
		t.Fatal("generator not deterministic")
	}
}

// --- Supervised-execution fuzzing -----------------------------------------
//
// FuzzSupervised drives the fault-tolerant supervisor over the same random
// loop generator the equivalence fuzz uses, with the failure mode and its
// trigger point fuzzed alongside the program shape: clean runs, queue
// errors drawn per value from a seeded probability stream, queue errors
// every N values, and stage panics. The
// invariant is the supervisor's whole contract: a nil error and the
// bit-identical sequential state, whatever was injected.

// fuzzSupervisedOne runs one supervised fuzz case.
func fuzzSupervisedOne(t *testing.T, seed uint64, mode uint8, knob uint16) {
	t.Helper()
	f, mem := genLoop(seed)
	opts := interp.Options{Mem: mem, MaxSteps: 50_000_000}
	base, err := interp.Run(f, opts)
	if err != nil {
		t.Fatalf("seed %d: baseline: %v", seed, err)
	}
	prof, err := profile.Collect(f, opts)
	if err != nil {
		t.Fatalf("seed %d: profile: %v", seed, err)
	}
	a, err := Analyze(f, "header", prof, Config{NumThreads: 2})
	if err != nil {
		t.Fatalf("seed %d: analyze: %v", seed, err)
	}
	if a.NumSCCs() < 2 {
		return
	}
	hp := a.Heuristic()
	if hp.N < 2 {
		return
	}
	// Two knob bits pick the interop corner: communication substrate and
	// compiler-side flow packing, crossed with every fault mode below —
	// ring queues must survive fault plans, checkpoint barriers, stage
	// panics, and sequential resume exactly like channels do.
	kind := queue.KindChannel
	if knob&1 != 0 {
		kind = queue.KindRing
	}
	tr, err := SplitOpt(a.G, hp, SplitOptions{PackFlows: knob&2 != 0})
	if err != nil {
		t.Fatalf("seed %d: transform: %v", seed, err)
	}

	plan := &rt.FaultPlan{Seed: seed}
	switch mode % 4 {
	case 1:
		// prob(P,SEED): each value at either end of the queue fails with
		// probability P, drawn from the plan seed's stream.
		plan.Queue = map[int]failpoint.Policy{int(knob) % tr.NumQueues: {
			Action: failpoint.ActError, Prob: float64(1+knob%64) / 1024, Seed: seed}}
	case 2:
		plan.Queue = map[int]failpoint.Policy{int(knob) % tr.NumQueues: {
			Action: failpoint.ActError, Every: int64(1 + knob%256)}}
	case 3:
		plan.Thread = map[int]failpoint.Policy{int(knob) % len(tr.Threads): {
			Action: failpoint.ActPanic, Nth: int64(1 + knob%2048)}}
	}

	res, rep, err := supervisor.Run(context.Background(), supervisor.Pipeline{
		Threads: tr.Threads, Original: f, LoopHeader: "header",
		RegOwner: tr.RegOwner, Mem: mem,
	}, supervisor.Policy{
		QueueCap:        1 + int(knob%8),
		Queue:           kind,
		CheckpointEvery: int64(1 + knob%16),
		MaxSteps:        50_000_000,
		Faults:          plan,
	})
	if err != nil {
		t.Fatalf("seed %d mode %d knob %d: supervised run failed: %v (attempt failure: %v)",
			seed, mode%4, knob, err, rep.Failure)
	}
	if d := base.Mem.Diff(res.Mem); d != -1 {
		t.Fatalf("seed %d mode %d knob %d: memory diverges at %d (resumed=%v from iter %d)\noriginal:\n%s",
			seed, mode%4, knob, d, rep.Resumed, rep.ResumeIter, f)
	}
	for r, v := range base.LiveOuts {
		if res.LiveOuts[r] != v {
			t.Fatalf("seed %d mode %d knob %d: live-out %s = %d, want %d (resumed=%v)",
				seed, mode%4, knob, r, res.LiveOuts[r], v, rep.Resumed)
		}
	}
}

// FuzzSupervised is the native fuzz entry; `go test -fuzz=FuzzSupervised`
// mutates from a corpus seeded with the fixed-seed sweep below.
func FuzzSupervised(f *testing.F) {
	for seed := uint64(1); seed <= 10; seed++ {
		for mode := uint8(0); mode < 4; mode++ {
			f.Add(seed, mode, uint16(64+7*uint16(mode)))
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, mode uint8, knob uint16) {
		fuzzSupervisedOne(t, seed, mode, knob)
	})
}

// TestFuzzSupervisedFixedSeeds pins the corpus so every failure mode runs
// deterministically in plain `go test`.
func TestFuzzSupervisedFixedSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		for mode := uint8(0); mode < 4; mode++ {
			fuzzSupervisedOne(t, seed, mode, uint16(seed*31+uint64(mode)*7))
		}
	}
}
