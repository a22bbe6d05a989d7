package interp

import (
	"fmt"
	"sort"

	"dswp/internal/ir"
)

// Pseudo-ops of lowered code. They follow ir.OpConsume, the last ir op,
// so a dispatch switch over Op.Op sees one dense opcode range and compiles
// to a jump table.
const (
	// OpSkip stands for an empty block: it retires nothing and falls
	// through, so every block keeps a pc of its own.
	OpSkip = ir.OpConsume + 1 + iota
	// OpEnd follows the last block and reports execution falling off the
	// end of the function.
	OpEnd
)

// Code is a thread function lowered once for execution: a flat array of
// pre-decoded ops in block layout order, with register and queue operands
// resolved to indices, branch targets resolved to pcs and each control
// transfer's back-edge flag computed statically. An op that is not a
// transfer continues at pc+1, which is also how a block without a
// terminator falls through to the next block in layout. Both executors —
// this package's deterministic interpreter and the concurrent stage loop
// in internal/runtime — run Code, so they share one decoding, one ALU
// (Op.Eval) and one set of control-flow rules. A Code is immutable and
// safe to share between concurrent runs.
type Code struct {
	Fn  *ir.Function
	Ops []Op
	// Outer is the pc of the function's outermost loop header: the
	// earliest block in layout order targeted by a back edge. Transfers
	// to it along a back edge count exactly the outer-loop iterations,
	// however asymmetrically pipeline threads replicate inner loops. -1
	// when the function has no loop.
	Outer int
	// NumQueues is one past the highest queue a flow op names.
	NumQueues int
	// starts[i] is the pc of fn.Blocks[i]'s first op.
	starts []int
}

// Op is one pre-decoded instruction. Register operands are register
// numbers (-1 for none), so executors index the register file directly.
type Op struct {
	Op ir.Op
	// BackT and BackF flag the transfer to T (a jump's or a taken
	// branch's target) and to F (a branch's false target) as a back
	// edge: the target block sits at the same or an earlier layout
	// position than the transfer's own block.
	BackT, BackF bool
	Dst          int32 // destination register; -1 for none (a token consume)
	A, B         int32 // source registers in operand order; -1 for none
	Q            int32 // queue of a flow op
	T, F         int32 // target pcs of a jump or branch
	ID           int32 // instruction ID: the executors' Counts index
	Imm          int64
	In           *ir.Instr // the source instruction (nil for pseudo-ops)
}

// Lower builds fn's Code. It fails when fn has no blocks or a transfer
// targets a block outside fn.
func Lower(fn *ir.Function) (*Code, error) {
	if len(fn.Blocks) == 0 {
		return nil, fmt.Errorf("interp: %s has no entry block", fn.Name)
	}
	c := &Code{Fn: fn, Outer: -1, starts: make([]int, len(fn.Blocks))}
	pos := make(map[*ir.Block]int, len(fn.Blocks))
	n := 0
	for i, b := range fn.Blocks {
		pos[b] = i
		c.starts[i] = n
		n += max(1, len(b.Instrs))
	}
	c.Ops = make([]Op, 0, n+1)
	outer := -1 // layout position of the outer header
	target := func(from int, in *ir.Instr, tg *ir.Block) (int32, bool, error) {
		ti, ok := pos[tg]
		if !ok {
			return 0, false, fmt.Errorf("interp: %s/%s: %s targets a block outside the function",
				fn.Name, fn.Blocks[from].Name, in)
		}
		back := ti <= from
		if back && (outer < 0 || ti < outer) {
			outer = ti
		}
		return int32(c.starts[ti]), back, nil
	}
	for bi, b := range fn.Blocks {
		if len(b.Instrs) == 0 {
			c.Ops = append(c.Ops, Op{Op: OpSkip, Dst: -1, A: -1, B: -1})
			continue
		}
		for _, in := range b.Instrs {
			op := Op{Op: in.Op, Dst: int32(in.Dst), A: -1, B: -1, Q: int32(in.Queue),
				ID: int32(in.ID), Imm: in.Imm, In: in}
			if len(in.Src) > 0 {
				op.A = int32(in.Src[0])
			}
			if len(in.Src) > 1 {
				op.B = int32(in.Src[1])
			}
			var err error
			switch in.Op {
			case ir.OpJump:
				op.T, op.BackT, err = target(bi, in, in.Target)
			case ir.OpBranch:
				if op.T, op.BackT, err = target(bi, in, in.Target); err == nil {
					op.F, op.BackF, err = target(bi, in, in.TargetFalse)
				}
			case ir.OpProduce, ir.OpConsume:
				c.NumQueues = max(c.NumQueues, in.Queue+1)
			}
			if err != nil {
				return nil, err
			}
			c.Ops = append(c.Ops, op)
		}
	}
	c.Ops = append(c.Ops, Op{Op: OpEnd, Dst: -1, A: -1, B: -1})
	if outer >= 0 {
		c.Outer = c.starts[outer]
	}
	return c, nil
}

// BlockPC returns the pc of the named block's first op.
func (c *Code) BlockPC(name string) (int, bool) {
	for i, b := range c.Fn.Blocks {
		if b.Name == name {
			return c.starts[i], true
		}
	}
	return 0, false
}

// Where maps a pc back to its block and in-block index, for diagnostics.
// The OpEnd sentinel maps to one past the last block's end.
func (c *Code) Where(pc int) (*ir.Block, int) {
	i := sort.Search(len(c.starts), func(i int) bool { return c.starts[i] > pc }) - 1
	return c.Fn.Blocks[i], pc - c.starts[i]
}

// FellOff is the error for execution reaching the OpEnd sentinel.
func (c *Code) FellOff() error {
	return fmt.Errorf("fell off the end of block %s", c.Fn.Blocks[len(c.Fn.Blocks)-1].Name)
}

// Retired returns the trace event of op, which just retired over regs
// (addr is a load's or store's word address), and whether it took a
// back edge.
func (op *Op) Retired(regs []int64, addr int64) (ev Event, back bool) {
	ev.In = op.In
	switch op.Op {
	case ir.OpLoad, ir.OpStore:
		ev.Addr = addr
	case ir.OpBranch:
		ev.Taken = regs[op.A] != 0
		back = op.BackF
		if ev.Taken {
			back = op.BackT
		}
	case ir.OpJump:
		ev.Taken, back = true, op.BackT
	}
	return ev, back
}

// Eval evaluates a non-memory, non-flow, non-control op over regs. It is
// the single source of truth for ALU semantics, shared by this
// interpreter and the concurrent runtime in internal/runtime.
func (op *Op) Eval(regs []int64) int64 {
	switch op.Op {
	case ir.OpConst:
		return op.Imm
	case ir.OpMove:
		return regs[op.A]
	case ir.OpAdd:
		return regs[op.A] + regs[op.B]
	case ir.OpSub:
		return regs[op.A] - regs[op.B]
	case ir.OpMul:
		return regs[op.A] * regs[op.B]
	case ir.OpDiv:
		if regs[op.B] == 0 {
			return 0
		}
		return regs[op.A] / regs[op.B]
	case ir.OpRem:
		if regs[op.B] == 0 {
			return 0
		}
		return regs[op.A] % regs[op.B]
	case ir.OpAnd:
		return regs[op.A] & regs[op.B]
	case ir.OpOr:
		return regs[op.A] | regs[op.B]
	case ir.OpXor:
		return regs[op.A] ^ regs[op.B]
	case ir.OpShl:
		return regs[op.A] << (uint64(regs[op.B]) & 63)
	case ir.OpShr:
		return regs[op.A] >> (uint64(regs[op.B]) & 63)
	case ir.OpNeg:
		return -regs[op.A]
	case ir.OpNot:
		return ^regs[op.A]
	case ir.OpCmpEQ:
		return b2i(regs[op.A] == regs[op.B])
	case ir.OpCmpNE:
		return b2i(regs[op.A] != regs[op.B])
	case ir.OpCmpLT:
		return b2i(regs[op.A] < regs[op.B])
	case ir.OpCmpLE:
		return b2i(regs[op.A] <= regs[op.B])
	case ir.OpCmpGT:
		return b2i(regs[op.A] > regs[op.B])
	case ir.OpCmpGE:
		return b2i(regs[op.A] >= regs[op.B])
	case ir.OpFAdd:
		return ir.F2I(ir.I2F(regs[op.A]) + ir.I2F(regs[op.B]))
	case ir.OpFSub:
		return ir.F2I(ir.I2F(regs[op.A]) - ir.I2F(regs[op.B]))
	case ir.OpFMul:
		return ir.F2I(ir.I2F(regs[op.A]) * ir.I2F(regs[op.B]))
	case ir.OpFDiv:
		return ir.F2I(ir.I2F(regs[op.A]) / ir.I2F(regs[op.B]))
	case ir.OpFCmpLT:
		return b2i(ir.I2F(regs[op.A]) < ir.I2F(regs[op.B]))
	case ir.OpFCmpGT:
		return b2i(ir.I2F(regs[op.A]) > ir.I2F(regs[op.B]))
	case ir.OpIToF:
		return ir.F2I(float64(regs[op.A]))
	case ir.OpFToI:
		return int64(ir.I2F(regs[op.A]))
	}
	panic(fmt.Sprintf("interp: unhandled op %s", op.Op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
