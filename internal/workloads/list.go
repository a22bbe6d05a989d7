package workloads

import (
	"dswp/internal/interp"
	"dswp/internal/ir"
)

// Linked-list node layouts, in words:
//
//	traversal node: {0: next, 1: val}
//	outer node:     {0: next, 1: inner head}
//	inner node:     {0: next, 1: val}

// ListTraversal builds the paper's Figure 1 motivating loop:
//
//	while (ptr = ptr->next) { ptr->val = ptr->val + 1 }
//
// Nodes are shuffled in memory so the pointer chase defeats any spatial
// locality, as in the paper's recursive-data-structure discussion.
func ListTraversal(n int64) *Program {
	b := ir.NewBuilder("list_traversal")
	nodes := b.F.AddObject("nodes", 2*n+2)
	// Each iteration touches exactly one node (the list is acyclic), so
	// there are no cross-iteration memory dependences — the property that
	// makes the loop a legal DOACROSS candidate in Figure 1.
	b.F.Objects[nodes].IterPrivate = true

	pre := b.Block("pre")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	base := interp.Layout(b.F)[0]
	ptr := ir.Reg(1)
	b.F.NoteReg(ptr)

	b.SetBlock(pre)
	b.ConstTo(ptr, base) // head sentinel node
	zero := b.Const(0)
	one := b.Const(1)
	three := b.Const(3)
	b.Jump(header)

	b.SetBlock(header)
	next := b.F.NewInstr(ir.OpLoad) // ptr = ptr->next
	next.Dst = ptr
	next.Src = []ir.Reg{ptr}
	next.Obj = nodes
	next.Field = 0
	b.Emit(next)
	p := b.CmpEQ(ptr, zero)
	b.Br(p, exit, body)

	b.SetBlock(body)
	val := b.LoadF(ptr, 1, nodes, 1)
	m := b.Mul(val, three)
	v2 := b.F.NewReg()
	b.BinTo(ir.OpAdd, v2, m, one)
	b.StoreF(v2, ptr, 1, nodes, 1)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{ptr}
	b.F.MustVerify()

	// Memory: sentinel at base, then n nodes in shuffled order.
	mem := interp.MemoryFor(b.F)
	r := NewRNG(41)
	order := r.Perm(n)
	addrOf := func(i int64) int64 { return base + 2 + 2*order[i] }
	prev := base
	for i := int64(0); i < n; i++ {
		a := addrOf(i)
		mem.Set(prev+0, a) // prev->next
		mem.Set(a+1, r.Intn(1000))
		prev = a
	}
	mem.Set(prev+0, 0)

	return &Program{
		Name:        "list-traversal",
		F:           b.F,
		LoopHeader:  "header",
		Mem:         mem,
		Coverage:    1.0,
		Description: "Figure 1: pointer-chasing list update, DOACROSS vs DSWP motivation",
	}
}

// ListOfLists builds the paper's Figure 2 running example: sum every
// element of a list of lists. The outer loop is the DSWP target.
func ListOfLists(nOuter, innerLen int64) *Program {
	b := ir.NewBuilder("list_of_lists")
	outer := b.F.AddObject("outer", 2*nOuter+2)
	inner := b.F.AddObject("inner", 2*nOuter*innerLen+2)

	bb1 := b.Block("BB1") // preheader
	bb2 := b.F.NewBlock("BB2")
	bb3 := b.F.NewBlock("BB3")
	bb4 := b.F.NewBlock("BB4")
	bb5 := b.F.NewBlock("BB5")
	bb6 := b.F.NewBlock("BB6")
	bb7 := b.F.NewBlock("BB7")

	bases := interp.Layout(b.F)
	r1, r2, r3, sum := ir.Reg(1), ir.Reg(2), ir.Reg(3), ir.Reg(10)
	for _, r := range []ir.Reg{r1, r2, r3, sum} {
		b.F.NoteReg(r)
	}

	head := bases[0]
	if nOuter == 0 {
		head = 0
	}
	b.SetBlock(bb1)
	b.ConstTo(r1, head) // outer head
	b.ConstTo(sum, 0)
	zero := b.Const(0)
	b.Jump(bb2)

	b.SetBlock(bb2) // A, B
	p1 := b.CmpEQ(r1, zero)
	b.Br(p1, bb7, bb3)

	b.SetBlock(bb3) // C
	b.LoadTo(r2, r1, 1, outer).Field = 1
	b.Jump(bb4)

	b.SetBlock(bb4) // D, E
	p2 := b.CmpEQ(r2, zero)
	b.Br(p2, bb6, bb5)

	b.SetBlock(bb5) // F, G, H, I
	b.LoadTo(r3, r2, 1, inner).Field = 1
	b.AddTo(sum, sum, r3)
	b.LoadTo(r2, r2, 0, inner).Field = 0
	b.Jump(bb4)

	b.SetBlock(bb6) // J, K
	b.LoadTo(r1, r1, 0, outer).Field = 0
	b.Jump(bb2)

	b.SetBlock(bb7)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{sum}
	b.F.MustVerify()

	// Memory: outer list of nOuter nodes, each with an inner list of
	// innerLen value nodes.
	mem := interp.MemoryFor(b.F)
	r := NewRNG(43)
	outerBase, innerBase := bases[0], bases[1]
	innerNext := innerBase
	for i := int64(0); i < nOuter; i++ {
		oa := outerBase + 2*i
		if i+1 < nOuter {
			mem.Set(oa+0, oa+2)
		} else {
			mem.Set(oa+0, 0)
		}
		prev := int64(0)
		for j := innerLen; j > 0; j-- {
			na := innerNext
			innerNext += 2
			mem.Set(na+0, prev)
			mem.Set(na+1, r.Intn(100))
			prev = na
		}
		mem.Set(oa+1, prev)
	}

	return &Program{
		Name:        "list-of-lists",
		F:           b.F,
		LoopHeader:  "BB2",
		Mem:         mem,
		Coverage:    1.0,
		Description: "Figure 2: sum over a list of lists, the paper's running example",
	}
}

// SumOfLists computes the expected list-of-lists sum directly from the
// memory image, for equivalence checks.
func SumOfLists(p *Program) int64 {
	bases := interp.Layout(p.F)
	sum := int64(0)
	for oa := bases[0]; oa != 0; oa = p.Mem.Get(oa + 0) {
		for na := p.Mem.Get(oa + 1); na != 0; na = p.Mem.Get(na + 0) {
			sum += p.Mem.Get(na + 1)
		}
	}
	return sum
}
