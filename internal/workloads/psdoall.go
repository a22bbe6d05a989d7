package workloads

import (
	"dswp/internal/interp"
	"dswp/internal/ir"
)

// HashRed models the DOALL-heavy loop shape PS-DSWP targets: a long pure
// per-element hash chain (no cross-iteration dependence) feeding a small
// XOR reduction (one register recurrence). Under plain DSWP the hash
// chain lands in one pipeline stage that dwarfs the others, so the
// pipeline's throughput is the hash stage's throughput; the stage is
// replicable precisely because the reduction — the only loop-carried
// dependence besides the induction pointer — is kept out of it. This is
// the workload that exercises the replication fan-in merge path.
func HashRed() *Program {
	return hashRed(16000, 6)
}

func hashRed(n, rounds int64) *Program {
	b := ir.NewBuilder("hashred_loop")
	in := b.F.AddObject("in", n)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	pin, acc := b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(pin, bases[0])
	b.ConstTo(acc, 0)
	end := b.Const(bases[0] + n)
	hk := b.Const(2654435761)
	sh := b.Const(13)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(pin, end)
	b.Br(p, body, exit)

	// Hash chain: every round reads only the previous round's value, so
	// the whole chain is iteration-private — the replicable payload.
	b.SetBlock(body)
	h := b.Load(pin, 0, in)
	for r := int64(0); r < rounds; r++ {
		t1 := b.Mul(h, hk)
		t2 := b.Shr(t1, sh)
		h = b.Xor(t2, h)
	}
	// The reduction is the loop's one value recurrence; it stays serial.
	b.BinTo(ir.OpXor, acc, acc, h)
	b.AddTo(pin, pin, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{acc}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := newRNG(271)
	for i := int64(0); i < n; i++ {
		mem.Set(bases[0]+i, r.Intn(1<<30))
	}
	return &Program{
		Name: "hashred", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.90,
		Description: "per-element hash chain feeding an XOR reduction (PS-DSWP replication subject)",
	}
}

// ReplicationSuite lists the workloads added for the PS-DSWP replication
// study, servable alongside the Table 1 suite and §5 case studies.
func ReplicationSuite() []Builder {
	return []Builder{
		{"hashred", HashRed},
	}
}
