package workloads

import (
	"dswp/internal/interp"
	"dswp/internal/ir"
)

// The SPEC-CPU2000 kernels. Each models the dependence *structure* of the
// loop the paper selects — the recurrences, SCC shapes and balance that
// drive DSWP's behaviour — over synthetic data. See DESIGN.md §2 for the
// substitution rationale.

// Compress models 29.compress's byte-coding loop: a DOALL-style pass that
// hashes each input byte into an output buffer. The only recurrences are
// the induction pointers, so DSWP pipelines trivially (the paper notes
// such loops would do even better as independent threads).
func Compress() *Program {
	const n = 20000
	b := ir.NewBuilder("compress_loop")
	in := b.F.AddObject("in", n)
	out := b.F.AddObject("out", n)
	b.F.Objects[out].IterPrivate = true

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	pin, pout := b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(pin, bases[0])
	b.ConstTo(pout, bases[1])
	end := b.Const(bases[0] + n)
	hk := b.Const(2654435761)
	sh := b.Const(7)
	mask := b.Const(0xffff)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(pin, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	v := b.Load(pin, 0, in)
	t1 := b.Mul(v, hk)
	t2 := b.Shr(t1, sh)
	t3 := b.Xor(t2, v)
	t4 := b.And(t3, mask)
	b.Store(t4, pout, 0, out)
	b.AddTo(pin, pin, one)
	b.AddTo(pout, pout, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{pout}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(101)
	for i := int64(0); i < n; i++ {
		mem.Set(bases[0]+i, r.Intn(256))
	}
	return &Program{
		Name: "29.compress", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.72,
		Description: "byte-hashing coder loop (DOALL-style, induction-only recurrences)",
	}
}

// Art models 179.art's recognition loop (the paper's Figure 11):
//
//	for (ti = 0; ti < numf; ti++)
//	    Y[tj].y += f_layer[ti].p * bus[ti][tj];
//
// The accumulation lives in memory, so the load/add/store of Y[tj].y is a
// cross-iteration memory recurrence. ArtAccum applies the §5.3 accumulator
// expansion: the loop is unrolled by two with two register accumulators,
// splitting the reduction recurrence into independent halves (FP sums
// reassociate, as real accumulator expansion does).
func Art() *Program      { return art(false) }
func ArtAccum() *Program { return art(true) }

func art(accumExpanded bool) *Program {
	const numf = 12000 // even: the expanded variant unrolls by two
	b := ir.NewBuilder("art_loop")
	flayer := b.F.AddObject("f_layer", numf)
	bus := b.F.AddObject("bus", numf)
	y := b.F.AddObject("Y", 2)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	ti, bp := b.F.NewReg(), b.F.NewReg()
	sum0, sum1 := b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(ti, bases[0])
	b.ConstTo(bp, bases[1])
	end := b.Const(bases[0] + numf)
	yaddr := b.Const(bases[2])
	step := b.Const(1)
	if accumExpanded {
		step = b.Const(2)
		b.ConstTo(sum0, ir.F2I(0))
		b.ConstTo(sum1, ir.F2I(0))
	}
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(ti, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	fp := b.Load(ti, 0, flayer)
	bv := b.Load(bp, 0, bus)
	prod := b.FMul(fp, bv)
	if accumExpanded {
		b.BinTo(ir.OpFAdd, sum0, sum0, prod)
		fp1 := b.Load(ti, 1, flayer)
		bv1 := b.Load(bp, 1, bus)
		prod1 := b.FMul(fp1, bv1)
		b.BinTo(ir.OpFAdd, sum1, sum1, prod1)
	} else {
		yv := b.LoadF(yaddr, 0, y, 0)
		ys := b.FAdd(yv, prod)
		b.StoreF(ys, yaddr, 0, y, 0)
	}
	b.AddTo(ti, ti, step)
	b.AddTo(bp, bp, step)
	b.Jump(header)

	b.SetBlock(exit)
	if accumExpanded {
		total := b.FAdd(sum0, sum1)
		yv := b.LoadF(yaddr, 0, y, 0)
		ys := b.FAdd(yv, total)
		b.StoreF(ys, yaddr, 0, y, 0)
	}
	b.Ret()
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(103)
	for i := int64(0); i < numf; i++ {
		mem.Set(bases[0]+i, ir.F2I(r.Float64()))
		mem.Set(bases[1]+i, ir.F2I(r.Float64()))
	}
	name := "179.art"
	desc := "neural-net reduction with in-memory accumulator (Figure 11)"
	if accumExpanded {
		name = "179.art-accum"
		desc = "179.art after §5.3 accumulator expansion (register accumulator)"
	}
	return &Program{
		Name: name, F: b.F, LoopHeader: "header", Mem: mem,
		Coverage: 0.96, Description: desc,
	}
}

// MCF models 181.mcf's refresh_potential-style loop: a pointer chase over
// network nodes with per-node cost computation and a conditional sign fix,
// yielding the mostly-linear DAG_SCC of the paper's Figure 7. Node layout:
// {0: next, 1: cost, 2: potential (written), 3: flow}.
func MCF() *Program {
	const n = 6000
	b := ir.NewBuilder("mcf_loop")
	nodes := b.F.AddObject("nodes", 4*n+4)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	negb := b.F.NewBlock("negb")
	posb := b.F.NewBlock("posb")
	join := b.F.NewBlock("join")
	exit := b.F.NewBlock("exit")

	base := interp.Layout(b.F)[0]
	node := b.F.NewReg()
	total := b.F.NewReg()
	adj := b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(node, base)
	b.ConstTo(total, 0)
	zero := b.Const(0)
	b.Jump(header)

	b.SetBlock(header)
	chase := b.F.NewInstr(ir.OpLoad) // node = node->next
	chase.Dst = node
	chase.Src = []ir.Reg{node}
	chase.Obj = nodes
	chase.Field = 0
	b.Emit(chase)
	p := b.CmpEQ(node, zero)
	b.Br(p, exit, body)

	b.SetBlock(body)
	cost := b.LoadF(node, 1, nodes, 1)
	flow := b.LoadF(node, 3, nodes, 3)
	m := b.Mul(cost, flow)
	pneg := b.CmpLT(m, zero)
	b.Br(pneg, negb, posb)

	b.SetBlock(negb)
	b.UnTo(ir.OpNeg, adj, m)
	b.Jump(join)

	b.SetBlock(posb)
	b.MoveTo(adj, m)
	b.Jump(join)

	b.SetBlock(join)
	pot := b.Add(adj, cost)
	b.StoreF(pot, node, 2, nodes, 2)
	b.AddTo(total, total, pot)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{total}
	b.F.MustVerify()

	// Shuffled node placement: the chase misses constantly, as mcf does.
	mem := interp.MemoryFor(b.F)
	r := NewRNG(107)
	order := r.Perm(n)
	addrOf := func(i int64) int64 { return base + 4 + 4*order[i] }
	prev := base
	for i := int64(0); i < n; i++ {
		a := addrOf(i)
		mem.Set(prev+0, a)
		mem.Set(a+1, r.Intn(1000)-500) // cost
		mem.Set(a+3, r.Intn(100))      // flow
		prev = a
	}
	mem.Set(prev+0, 0)
	return &Program{
		Name: "181.mcf", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.77,
		Description: "network-simplex pointer chase with potential updates (Figure 7 subject)",
	}
}

// Equake models 183.equake's sparse matrix-vector inner loop: index load,
// value load, an indirect gather, and a floating-point accumulation.
func Equake() *Program {
	const (
		nnz = 12000
		m   = 2048
	)
	b := ir.NewBuilder("equake_loop")
	colidx := b.F.AddObject("colidx", nnz)
	a := b.F.AddObject("A", nnz)
	x := b.F.AddObject("X", m)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	j, ap, sum := b.F.NewReg(), b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(j, bases[0])
	b.ConstTo(ap, bases[1])
	b.ConstTo(sum, ir.F2I(0))
	end := b.Const(bases[0] + nnz)
	xbase := b.Const(bases[2])
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(j, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	col := b.Load(j, 0, colidx)
	av := b.Load(ap, 0, a)
	xaddr := b.Add(xbase, col)
	xv := b.Load(xaddr, 0, x)
	prod := b.FMul(av, xv)
	b.BinTo(ir.OpFAdd, sum, sum, prod)
	b.AddTo(j, j, one)
	b.AddTo(ap, ap, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{sum}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(109)
	for i := int64(0); i < nnz; i++ {
		mem.Set(bases[0]+i, r.Intn(m))
		mem.Set(bases[1]+i, ir.F2I(r.Float64()))
	}
	for i := int64(0); i < m; i++ {
		mem.Set(bases[2]+i, ir.F2I(r.Float64()*2))
	}
	return &Program{
		Name: "183.equake", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.92,
		Description: "sparse matrix-vector product with indirect gather and FP reduction",
	}
}

// Ammp models 188.ammp's non-bonded interaction loop: walk a neighbor
// list, compute a distance test, and conditionally accumulate energy and
// scatter forces. The force array is read-modify-write through a
// data-dependent index, a genuine cross-iteration memory recurrence.
func Ammp() *Program {
	const (
		n = 9000
		m = 1024
	)
	b := ir.NewBuilder("ammp_loop")
	nlist := b.F.AddObject("nlist", n)
	pos := b.F.AddObject("pos", m)
	force := b.F.AddObject("force", m)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	acc := b.F.NewBlock("acc")
	latch := b.F.NewBlock("latch")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	i, energy := b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, bases[0])
	b.ConstTo(energy, ir.F2I(0))
	end := b.Const(bases[0] + n)
	posbase := b.Const(bases[1])
	forcebase := b.Const(bases[2])
	x0 := b.FConst(1.5)
	cutoff := b.FConst(1.0)
	fone := b.FConst(1.0)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	idx := b.Load(i, 0, nlist)
	paddr := b.Add(posbase, idx)
	xv := b.Load(paddr, 0, pos)
	dx := b.Bin(ir.OpFSub, xv, x0)
	r2 := b.FMul(dx, dx)
	pc := b.Bin(ir.OpFCmpLT, r2, cutoff)
	b.Br(pc, acc, latch)

	b.SetBlock(acc)
	inv := b.FDiv(fone, r2)
	b.BinTo(ir.OpFAdd, energy, energy, inv)
	faddr := b.Add(forcebase, idx)
	fv := b.Load(faddr, 0, force)
	f2 := b.FAdd(fv, inv)
	b.Store(f2, faddr, 0, force)
	b.Jump(latch)

	b.SetBlock(latch)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{energy}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(113)
	for i := int64(0); i < n; i++ {
		mem.Set(bases[0]+i, r.Intn(m))
	}
	for i := int64(0); i < m; i++ {
		mem.Set(bases[1]+i, ir.F2I(1.0+r.Float64()*2)) // positions >= 1
	}
	return &Program{
		Name: "188.ammp", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.86,
		Description: "molecular-dynamics neighbor loop with conditional energy/force accumulation",
	}
}

// Bzip2 models 256.bzip2's bit-stream packing loop: per-symbol coding into
// a bit buffer (the bsBuff/bsLive recurrences of the §4.2 discussion) with
// conditional word flushes.
func Bzip2() *Program {
	const n = 14000
	b := ir.NewBuilder("bzip2_loop")
	in := b.F.AddObject("in", n)
	lentab := b.F.AddObject("lentab", 256)
	out := b.F.AddObject("out", n)
	b.F.Objects[out].IterPrivate = true

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	flush := b.F.NewBlock("flush")
	latch := b.F.NewBlock("latch")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	i, outp := b.F.NewReg(), b.F.NewReg()
	bsbuff, bslive := b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, bases[0])
	b.ConstTo(outp, bases[2])
	b.ConstTo(bsbuff, 0)
	b.ConstTo(bslive, 0)
	end := b.Const(bases[0] + n)
	ltb := b.Const(bases[1])
	mask := b.Const(255)
	three := b.Const(3)
	thresh := b.Const(32)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	v := b.Load(i, 0, in)
	vs := b.Shr(v, three)
	code := b.Xor(v, vs)
	t := b.And(v, mask)
	ta := b.Add(ltb, t)
	ln := b.Load(ta, 0, lentab)
	sh := b.F.NewReg()
	b.BinTo(ir.OpShl, sh, bsbuff, ln)
	b.BinTo(ir.OpOr, bsbuff, sh, code)
	b.AddTo(bslive, bslive, ln)
	pf := b.CmpGE(bslive, thresh)
	b.Br(pf, flush, latch)

	b.SetBlock(flush)
	b.Store(bsbuff, outp, 0, out)
	b.AddTo(outp, outp, one)
	b.BinTo(ir.OpSub, bslive, bslive, thresh)
	b.Jump(latch)

	b.SetBlock(latch)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{bsbuff, bslive, outp}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(127)
	for k := int64(0); k < n; k++ {
		mem.Set(bases[0]+k, r.Intn(4096))
	}
	for k := int64(0); k < 256; k++ {
		mem.Set(bases[1]+k, 2+r.Intn(6)) // code lengths 2..7
	}
	return &Program{
		Name: "256.bzip2", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.64,
		Description: "bit-stream packing with bsBuff/bsLive recurrences and conditional flush",
	}
}
