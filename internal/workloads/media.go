package workloads

import (
	"dswp/internal/interp"
	"dswp/internal/ir"
)

// The Mediabench and utility kernels.

// Adpcm models adpcmdec's sample loop: a serial predictor (valpred) and
// step index (index), each clamped through conditional redefinitions, with
// table lookups between them. The spurious variant reproduces the §5.2
// hyperblock problem: every memory access is left unattributed (UnknownObj),
// so conservative memory dependences fuse most of the loop into one SCC.
func Adpcm() *Program         { return adpcm(false) }
func AdpcmSpurious() *Program { return adpcm(true) }

func adpcm(spurious bool) *Program {
	const n = 10000
	b := ir.NewBuilder("adpcm_loop")
	in := b.F.AddObject("in", n)
	idxtab := b.F.AddObject("idxtab", 16)
	steptab := b.F.AddObject("steptab", 89)
	out := b.F.AddObject("out", n)
	b.F.Objects[out].IterPrivate = true

	obj := func(o int) int {
		if spurious {
			return ir.UnknownObj
		}
		return o
	}

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	cl := b.F.NewBlock("clamp_lo")
	c2 := b.F.NewBlock("chk_hi")
	ch := b.F.NewBlock("clamp_hi")
	c3 := b.F.NewBlock("decode")
	vcl := b.F.NewBlock("vclamp")
	v2 := b.F.NewBlock("emit")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	i, outp := b.F.NewReg(), b.F.NewReg()
	index, valpred := b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, bases[0])
	b.ConstTo(outp, bases[3])
	b.ConstTo(index, 0)
	b.ConstTo(valpred, 0)
	end := b.Const(bases[0] + n)
	itb := b.Const(bases[1])
	stb := b.Const(bases[2])
	zero := b.Const(0)
	i88 := b.Const(88)
	minv := b.Const(-32768)
	three := b.Const(3)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	delta := b.Load(i, 0, obj(in))
	t1 := b.Add(itb, delta)
	dt := b.Load(t1, 0, obj(idxtab))
	b.AddTo(index, index, dt)
	pneg := b.CmpLT(index, zero)
	b.Br(pneg, cl, c2)

	b.SetBlock(cl)
	b.MoveTo(index, zero)
	b.Jump(c2)

	b.SetBlock(c2)
	phg := b.CmpGT(index, i88)
	b.Br(phg, ch, c3)

	b.SetBlock(ch)
	b.MoveTo(index, i88)
	b.Jump(c3)

	b.SetBlock(c3)
	t2 := b.Add(stb, index)
	step := b.Load(t2, 0, obj(steptab))
	vd := b.Mul(step, delta)
	vd2 := b.Shr(vd, three)
	b.AddTo(valpred, valpred, vd2)
	pvn := b.CmpLT(valpred, minv)
	b.Br(pvn, vcl, v2)

	b.SetBlock(vcl)
	b.MoveTo(valpred, minv)
	b.Jump(v2)

	b.SetBlock(v2)
	st := b.Store(valpred, outp, 0, obj(out))
	_ = st
	b.AddTo(outp, outp, one)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{valpred, index}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(131)
	for k := int64(0); k < n; k++ {
		mem.Set(bases[0]+k, r.Intn(16))
	}
	idxDelta := []int64{-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8}
	for k, d := range idxDelta {
		mem.Set(bases[1]+int64(k), d)
	}
	stepVal := int64(7)
	for k := int64(0); k < 89; k++ {
		mem.Set(bases[2]+k, stepVal)
		stepVal += stepVal / 10
	}
	name, desc := "adpcmdec", "serial ADPCM predictor with clamped index/valpred recurrences"
	if spurious {
		name, desc = "adpcmdec-spurious", "adpcmdec with unattributed memory accesses (§5.2 hyperblock regime)"
	}
	return &Program{
		Name: name, F: b.F, LoopHeader: "header", Mem: mem,
		Coverage: 0.98, Description: desc,
	}
}

// Epic models epicdec's clamping loop (the paper's Figure 10):
//
//	for (i = 0; i < x_size*y_size; i++) {
//	    dtemp = result[i] / scale_factor;
//	    if (dtemp < 0)      result[i] = 0;
//	    else if (dtemp > 1) result[i] = 1;
//	    else                result[i] = round(dtemp);
//	}
//
// result[] is iteration-private; the §5.1 case study runs the dependence
// analysis once accurately and once with ConservativeMemory, which fuses
// the load with all three stores into a single SCC.
func Epic() *Program {
	const n = 16000
	b := ir.NewBuilder("epic_loop")
	result := b.F.AddObject("result", n)
	b.F.Objects[result].IterPrivate = true

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	setz := b.F.NewBlock("set_zero")
	chk2 := b.F.NewBlock("chk_one")
	seto := b.F.NewBlock("set_one")
	setr := b.F.NewBlock("set_round")
	latch := b.F.NewBlock("latch")
	exit := b.F.NewBlock("exit")

	base := interp.Layout(b.F)[0]
	i := b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, base)
	end := b.Const(base + n)
	invScale := b.FConst(1.0 / 37.5)
	fzero := b.FConst(0)
	fone := b.FConst(1)
	fhalf := b.FConst(0.5)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	v := b.Load(i, 0, result)
	d := b.FMul(v, invScale)
	p1 := b.Bin(ir.OpFCmpLT, d, fzero)
	b.Br(p1, setz, chk2)

	b.SetBlock(setz)
	b.Store(fzero, i, 0, result)
	b.Jump(latch)

	b.SetBlock(chk2)
	p2 := b.Bin(ir.OpFCmpGT, d, fone)
	b.Br(p2, seto, setr)

	b.SetBlock(seto)
	b.Store(fone, i, 0, result)
	b.Jump(latch)

	b.SetBlock(setr)
	t := b.FAdd(d, fhalf)
	ti := b.Un(ir.OpFToI, t)
	tf := b.Un(ir.OpIToF, ti)
	b.Store(tf, i, 0, result)
	b.Jump(latch)

	b.SetBlock(latch)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(137)
	for k := int64(0); k < n; k++ {
		mem.Set(base+k, ir.F2I(r.Float64()*80-10))
	}
	return &Program{
		Name: "epicdec", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.68,
		Description: "pixel clamping loop (Figure 10), the §5.1 memory-analysis case study",
	}
}

// Jpeg models jpegenc's forward-quantization loop: a DOALL pass scaling
// each coefficient by a cyclic quantization table entry.
func Jpeg() *Program {
	const n = 12000
	b := ir.NewBuilder("jpeg_loop")
	in := b.F.AddObject("in", n)
	qt := b.F.AddObject("qt", 64)
	out := b.F.AddObject("out", n)
	b.F.Objects[out].IterPrivate = true

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	bases := interp.Layout(b.F)
	i, outp, c := b.F.NewReg(), b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, bases[0])
	b.ConstTo(outp, bases[2])
	b.ConstTo(c, 0)
	end := b.Const(bases[0] + n)
	qtb := b.Const(bases[1])
	m63 := b.Const(63)
	eight := b.Const(8)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	v := b.Load(i, 0, in)
	k := b.And(c, m63)
	qaddr := b.Add(qtb, k)
	q := b.Load(qaddr, 0, qt)
	t := b.Mul(v, q)
	t2 := b.Shr(t, eight)
	b.Store(t2, outp, 0, out)
	b.AddTo(c, c, one)
	b.AddTo(i, i, one)
	b.AddTo(outp, outp, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{c}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(139)
	for k := int64(0); k < n; k++ {
		mem.Set(bases[0]+k, r.Intn(2048)-1024)
	}
	for k := int64(0); k < 64; k++ {
		mem.Set(bases[1]+k, 16+r.Intn(100))
	}
	return &Program{
		Name: "jpegenc", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.62,
		Description: "forward quantization (DOALL-style coefficient scaling)",
	}
}

// WC models the Unix wc utility's classification loop: per-byte counter
// updates with an in-word state recurrence.
func WC() *Program {
	const n = 24000
	b := ir.NewBuilder("wc_loop")
	in := b.F.AddObject("in", n)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	isnl := b.F.NewBlock("is_nl")
	chksp := b.F.NewBlock("chk_space")
	setsp := b.F.NewBlock("set_space")
	nonsp := b.F.NewBlock("non_space")
	neww := b.F.NewBlock("new_word")
	latch := b.F.NewBlock("latch")
	exit := b.F.NewBlock("exit")

	base := interp.Layout(b.F)[0]
	i := b.F.NewReg()
	chars, words, lines, inword := b.F.NewReg(), b.F.NewReg(), b.F.NewReg(), b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, base)
	b.ConstTo(chars, 0)
	b.ConstTo(words, 0)
	b.ConstTo(lines, 0)
	b.ConstTo(inword, 0)
	end := b.Const(base + n)
	nl := b.Const(10)
	space := b.Const(32)
	zero := b.Const(0)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	ch := b.Load(i, 0, in)
	b.AddTo(chars, chars, one)
	pnl := b.CmpEQ(ch, nl)
	b.Br(pnl, isnl, chksp)

	b.SetBlock(isnl)
	b.AddTo(lines, lines, one)
	b.Jump(chksp)

	b.SetBlock(chksp)
	psp := b.CmpLE(ch, space)
	b.Br(psp, setsp, nonsp)

	b.SetBlock(setsp)
	b.MoveTo(inword, zero)
	b.Jump(latch)

	b.SetBlock(nonsp)
	pw := b.CmpEQ(inword, zero)
	b.Br(pw, neww, latch)

	b.SetBlock(neww)
	b.MoveTo(inword, one)
	b.AddTo(words, words, one)
	b.Jump(latch)

	b.SetBlock(latch)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{chars, words, lines}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(149)
	for k := int64(0); k < n; k++ {
		switch r.Intn(7) {
		case 0:
			mem.Set(base+k, 32) // space
		case 1:
			mem.Set(base+k, 10) // newline
		default:
			mem.Set(base+k, 97+r.Intn(26))
		}
	}
	return &Program{
		Name: "wc", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.97,
		Description: "byte classification with line/word/char counters and in-word state",
	}
}

// Gzip models 164.gzip's deflate_fast loop, the §5.4 case study: the
// position advance depends on a loaded match length, so the loop
// termination chain, the load, and the induction form one giant SCC and
// DSWP correctly refuses to transform it.
func Gzip() *Program {
	const n = 20000
	b := ir.NewBuilder("gzip_loop")
	window := b.F.AddObject("window", n+8)

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	base := interp.Layout(b.F)[0]
	i := b.F.NewReg()

	b.SetBlock(pre)
	b.ConstTo(i, base)
	end := b.Const(base + n)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, end)
	b.Br(p, body, exit)

	b.SetBlock(body)
	m := b.Load(i, 0, window) // match length at this position
	b.AddTo(i, i, m)          // position advances by the match
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{i}
	b.F.MustVerify()

	mem := interp.MemoryFor(b.F)
	r := NewRNG(151)
	for k := int64(0); k < n+8; k++ {
		mem.Set(base+k, 1+r.Intn(4))
	}
	return &Program{
		Name: "164.gzip", F: b.F, LoopHeader: "header", Mem: mem,
		Coverage:    0.80,
		Description: "deflate_fast-style loop whose termination is one serialized SCC (§5.4)",
	}
}

// Table1Suite lists the ten evaluated loops in the paper's Table 1 order.
func Table1Suite() []Builder {
	return []Builder{
		{"29.compress", Compress},
		{"179.art", Art},
		{"181.mcf", MCF},
		{"183.equake", Equake},
		{"188.ammp", Ammp},
		{"256.bzip2", Bzip2},
		{"adpcmdec", Adpcm},
		{"epicdec", Epic},
		{"jpegenc", Jpeg},
		{"wc", WC},
	}
}

// CaseStudies lists the §5 variants.
func CaseStudies() []Builder {
	return []Builder{
		{"179.art-accum", ArtAccum},
		{"adpcmdec-spurious", AdpcmSpurious},
		{"164.gzip", Gzip},
	}
}
