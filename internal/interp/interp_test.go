package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"dswp/internal/ir"
)

// sumLoop builds a function summing arr[0..n) into r10.
func sumLoop(t testing.TB, n int64) *ir.Function {
	t.Helper()
	b := ir.NewBuilder("sum")
	arr := b.F.AddObject("arr", n)
	_ = arr

	entry := b.Block("entry")
	header := b.F.NewBlock("header")
	body := b.F.NewBlock("body")
	exit := b.F.NewBlock("exit")

	base := Layout(b.F)[0]

	b.SetBlock(entry)
	i := b.F.NewReg()
	sum := ir.Reg(10)
	b.F.NoteReg(sum)
	b.ConstTo(i, base)
	b.ConstTo(sum, 0)
	limit := b.Const(base + n)
	one := b.Const(1)
	b.Jump(header)

	b.SetBlock(header)
	p := b.CmpLT(i, limit)
	b.Br(p, body, exit)

	b.SetBlock(body)
	v := b.Load(i, 0, 0)
	b.AddTo(sum, sum, v)
	b.AddTo(i, i, one)
	b.Jump(header)

	b.SetBlock(exit)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{sum}
	b.F.MustVerify()
	return b.F
}

func TestRunSumLoop(t *testing.T) {
	const n = 100
	f := sumLoop(t, n)
	mem := MemoryFor(f)
	base := Layout(f)[0]
	want := int64(0)
	for i := int64(0); i < n; i++ {
		mem.Set(base+i, i*3)
		want += i * 3
	}
	res, err := Run(f, Options{Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts[ir.Reg(10)]; got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestRunRecordsCountsAndTrace(t *testing.T) {
	const n = 10
	f := sumLoop(t, n)
	res, err := Run(f, Options{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Threads[0]
	if tr.Steps != int64(len(tr.Trace)) {
		t.Fatalf("Steps %d != len(Trace) %d", tr.Steps, len(tr.Trace))
	}
	// The load in body runs exactly n times.
	var loadCount int64
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad {
			loadCount = tr.Counts[in.ID]
		}
	})
	if loadCount != n {
		t.Fatalf("load executed %d times, want %d", loadCount, n)
	}
	// Header branch: n taken + 1 fall.
	var brTaken, brTotal int64
	for _, ev := range tr.Trace {
		if ev.In.Op == ir.OpBranch {
			brTotal++
			if ev.Taken {
				brTaken++
			}
		}
	}
	if brTotal != n+1 || brTaken != n {
		t.Fatalf("branch events taken/total = %d/%d, want %d/%d", brTaken, brTotal, n, n+1)
	}
}

func TestRunWithoutTraceKeepsCounts(t *testing.T) {
	f := sumLoop(t, 5)
	res, err := Run(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads[0].Trace) != 0 {
		t.Fatal("trace recorded without RecordTrace")
	}
	if res.Threads[0].Steps == 0 {
		t.Fatal("no steps counted")
	}
}

func TestALUSemantics(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"r3 = add r1, r2", 7 + 3},
		{"r3 = sub r1, r2", 7 - 3},
		{"r3 = mul r1, r2", 21},
		{"r3 = div r1, r2", 2},
		{"r3 = rem r1, r2", 1},
		{"r3 = and r1, r2", 7 & 3},
		{"r3 = or r1, r2", 7 | 3},
		{"r3 = xor r1, r2", 7 ^ 3},
		{"r3 = shl r1, r2", 7 << 3},
		{"r3 = shr r1, r2", 7 >> 3},
		{"r3 = neg r1", -7},
		{"r3 = not r1", ^int64(7)},
		{"r3 = cmpeq r1, r2", 0},
		{"r3 = cmpne r1, r2", 1},
		{"r3 = cmplt r1, r2", 0},
		{"r3 = cmple r1, r2", 0},
		{"r3 = cmpgt r1, r2", 1},
		{"r3 = cmpge r1, r2", 1},
		{"r3 = move r1", 7},
	}
	for _, c := range cases {
		src := "func t {\n  liveout r3\nentry:\n    r1 = const 7\n    r2 = const 3\n    " +
			c.src + "\n    ret\n}\n"
		f := ir.MustParse(src)
		res, err := Run(f, Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.src, err)
		}
		if got := res.LiveOuts[ir.Reg(3)]; got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestDivRemByZero(t *testing.T) {
	src := "func t {\n  liveout r3 r4\nentry:\n    r1 = const 9\n    r2 = const 0\n    r3 = div r1, r2\n    r4 = rem r1, r2\n    ret\n}\n"
	res, err := Run(ir.MustParse(src), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveOuts[ir.Reg(3)] != 0 || res.LiveOuts[ir.Reg(4)] != 0 {
		t.Fatalf("div/rem by zero = %d/%d, want 0/0", res.LiveOuts[ir.Reg(3)], res.LiveOuts[ir.Reg(4)])
	}
}

func TestFloatSemantics(t *testing.T) {
	b := ir.NewBuilder("fp")
	b.Block("entry")
	x := b.FConst(2.5)
	y := b.FConst(4.0)
	sum := b.FAdd(x, y)
	prod := b.FMul(x, y)
	quot := b.FDiv(y, x)
	lt := b.Bin(ir.OpFCmpLT, x, y)
	xi := b.Un(ir.OpFToI, x)
	back := b.Un(ir.OpIToF, xi)
	b.Ret()
	b.F.LiveOuts = []ir.Reg{sum, prod, quot, lt, xi, back}
	b.F.MustVerify()

	res, err := Run(b.F, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ir.I2F(res.LiveOuts[sum]); got != 6.5 {
		t.Errorf("fadd = %g", got)
	}
	if got := ir.I2F(res.LiveOuts[prod]); got != 10.0 {
		t.Errorf("fmul = %g", got)
	}
	if got := ir.I2F(res.LiveOuts[quot]); got != 1.6 {
		t.Errorf("fdiv = %g", got)
	}
	if res.LiveOuts[lt] != 1 {
		t.Errorf("fcmplt = %d", res.LiveOuts[lt])
	}
	if res.LiveOuts[xi] != 2 {
		t.Errorf("ftoi = %d", res.LiveOuts[xi])
	}
	if got := ir.I2F(res.LiveOuts[back]); got != 2.0 {
		t.Errorf("itof = %g", got)
	}
}

func TestLiveInRegs(t *testing.T) {
	src := "func t {\n  liveout r2\nentry:\n    r2 = add r1, r1\n    ret\n}\n"
	f := ir.MustParse(src)
	res, err := Run(f, Options{Regs: map[ir.Reg]int64{1: 21}})
	if err != nil {
		t.Fatal(err)
	}
	if res.LiveOuts[ir.Reg(2)] != 42 {
		t.Fatalf("got %d, want 42", res.LiveOuts[ir.Reg(2)])
	}
}

func TestOutOfBoundsLoadFails(t *testing.T) {
	src := "func t {\nentry:\n    r1 = const 99999\n    r2 = load [r1+0] @?\n    ret\n}\n"
	_, err := Run(ir.MustParse(src), Options{})
	if err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Fatalf("err = %v, want out of bounds", err)
	}
}

func TestStepLimit(t *testing.T) {
	src := "func t {\nentry:\n    jump entry\n}\n"
	_, err := Run(ir.MustParse(src), Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit", err)
	}
}

// Two-thread pipeline: thread 0 produces 1..n on queue 0 and consumes the
// running sum from queue 1; thread 1 consumes, accumulates, produces.
func TestTwoThreadPipeline(t *testing.T) {
	prod := ir.MustParse(`func producer {
  liveout r9
entry:
    r1 = const 0
    r5 = const 10
    r6 = const 1
    jump loop
loop:
    r1 = add r1, r6
    produce [0] = r1
    r2 = cmplt r1, r5
    br r2, loop, done
done:
    consume r9 = [1]
    ret
}
`)
	cons := ir.MustParse(`func consumer {
entry:
    r1 = const 0
    r5 = const 10
    r6 = const 1
    r7 = const 0
    jump loop
loop:
    consume r2 = [0]
    r7 = add r7, r2
    r1 = add r1, r6
    r3 = cmplt r1, r5
    br r3, loop, done
done:
    produce [1] = r7
    ret
}
`)
	res, err := RunThreads([]*ir.Function{prod, cons}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts[ir.Reg(9)]; got != 55 {
		t.Fatalf("pipeline sum = %d, want 55", got)
	}
}

func TestTokenFlows(t *testing.T) {
	a := ir.MustParse(`func a {
entry:
    produce [3] = token
    ret
}
`)
	b := ir.MustParse(`func b {
entry:
    consume token = [3]
    ret
}
`)
	if _, err := RunThreads([]*ir.Function{a, b}, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	a := ir.MustParse("func a {\nentry:\n    consume r1 = [0]\n    ret\n}\n")
	b := ir.MustParse("func b {\nentry:\n    consume r1 = [1]\n    ret\n}\n")
	_, err := RunThreads([]*ir.Function{a, b}, Options{})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// TestDeadlockReportsQueueOccupancy: empty-queue deadlocks name the stalled
// queue, its state, and which threads produce/consume it.
func TestDeadlockReportsQueueOccupancy(t *testing.T) {
	a := ir.MustParse("func a {\nentry:\n    consume r1 = [2]\n    produce [3] = r1\n    ret\n}\n")
	b := ir.MustParse("func b {\nentry:\n    consume r1 = [3]\n    produce [2] = r1\n    ret\n}\n")
	_, err := RunThreads([]*ir.Function{a, b}, Options{})
	if err == nil {
		t.Fatal("expected cyclic deadlock")
	}
	for _, want := range []string{"StallEmpty q2", "StallEmpty q3",
		"q2=empty (prod [1], cons [0])", "q3=empty (prod [0], cons [1])"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestLayoutAndMemory(t *testing.T) {
	f := ir.NewFunction("m")
	f.AddObject("a", 10)
	f.AddObject("b", 20)
	bases := Layout(f)
	if bases[0] != heapBase || bases[1] != heapBase+10 {
		t.Fatalf("bases = %v", bases)
	}
	if TotalWords(f) != heapBase+30 {
		t.Fatalf("TotalWords = %d", TotalWords(f))
	}
	m := MemoryFor(f)
	if m.Size() != heapBase+30 {
		t.Fatalf("size = %d", m.Size())
	}
	m.Set(5, 77)
	c := m.Clone()
	if !m.Equal(c) || c.Get(5) != 77 {
		t.Fatal("clone mismatch")
	}
	c.Set(6, 1)
	if m.Equal(c) {
		t.Fatal("clone aliases original")
	}
	if d := m.Diff(c); d != 6 {
		t.Fatalf("Diff = %d, want 6", d)
	}
	if d := m.Diff(m.Clone()); d != -1 {
		t.Fatalf("Diff equal = %d, want -1", d)
	}
}

func TestQueueCompaction(t *testing.T) {
	q := &queue{}
	for i := int64(0); i < 20000; i++ {
		q.push(i)
	}
	for i := int64(0); i < 20000; i++ {
		if q.empty() {
			t.Fatal("queue empty early")
		}
		if got := q.pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if !q.empty() {
		t.Fatal("queue should be empty")
	}
}

// Property: the interpreter computes the same array sum as Go, for random
// contents.
func TestQuickSumMatchesGo(t *testing.T) {
	f := sumLoop(t, 32)
	base := Layout(f)[0]
	check := func(vals [32]int32) bool {
		mem := MemoryFor(f)
		want := int64(0)
		for i, v := range vals {
			mem.Set(base+int64(i), int64(v))
			want += int64(v)
		}
		res, err := Run(f, Options{Mem: mem})
		if err != nil {
			return false
		}
		return res.LiveOuts[ir.Reg(10)] == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
