package interp

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dswp/internal/ir"
)

// sumLoop is a counted loop summing 1..10 into r7 (r1 = induction, r5 =
// limit, r6 = step); resumable at "loop" with a hand-built register file.
const sumLoopSrc = `func sum {
  liveout r7
entry:
    r1 = const 0
    r5 = const 10
    r6 = const 1
    r7 = const 0
    jump loop
loop:
    r1 = add r1, r6
    r7 = add r7, r1
    r2 = cmplt r1, r5
    br r2, loop, done
done:
    ret
}
`

// TestStartBlockRegFileResume: starting at the loop header with the
// architectural state of four completed iterations must finish with the
// full run's answer — the interpreter half of checkpoint resume.
func TestStartBlockRegFileResume(t *testing.T) {
	f := ir.MustParse(sumLoopSrc)
	full, err := Run(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := full.LiveOuts[ir.Reg(7)]; got != 55 {
		t.Fatalf("full run sum = %d, want 55", got)
	}
	// After 4 iterations at the header: r1=4, r7=1+2+3+4=10.
	regs := make([]int64, f.MaxReg()+1)
	regs[1], regs[5], regs[6], regs[7] = 4, 10, 1, 10
	res, err := Run(f, Options{StartBlock: "loop", RegFile: regs})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts[ir.Reg(7)]; got != 55 {
		t.Fatalf("resumed sum = %d, want 55", got)
	}
}

func TestStartBlockUnknownErrors(t *testing.T) {
	f := ir.MustParse(sumLoopSrc)
	_, err := Run(f, Options{StartBlock: "nope"})
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("err = %v, want unknown-start-block error", err)
	}
}

func TestRegFileOversizedErrors(t *testing.T) {
	f := ir.MustParse(sumLoopSrc)
	_, err := Run(f, Options{RegFile: make([]int64, f.MaxReg()+100)})
	if err == nil || !strings.Contains(err.Error(), "register file") {
		t.Fatalf("err = %v, want register-file size error", err)
	}
}

func TestCtxCancellation(t *testing.T) {
	f := ir.MustParse(sumLoopSrc)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(f, Options{Ctx: ctx})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDeadlockReportsIteration: the deadlock report names how many outer
// iterations each blocked thread completed.
func TestDeadlockReportsIteration(t *testing.T) {
	// The producer sends 3 values per iteration for 5 iterations; the
	// consumer asks for 4 per iteration, so it starves partway through.
	prod := ir.MustParse(`func producer {
entry:
    r1 = const 0
    r5 = const 5
    r6 = const 1
    jump loop
loop:
    produce [0] = r1
    produce [0] = r1
    produce [0] = r1
    r1 = add r1, r6
    r2 = cmplt r1, r5
    br r2, loop, done
done:
    ret
}
`)
	cons := ir.MustParse(`func consumer {
entry:
    r1 = const 0
    r5 = const 5
    r6 = const 1
    jump loop
loop:
    consume r2 = [0]
    consume r2 = [0]
    consume r2 = [0]
    consume r2 = [0]
    r1 = add r1, r6
    r3 = cmplt r1, r5
    br r3, loop, done
done:
    ret
}
`)
	_, err := RunThreads([]*ir.Function{prod, cons}, Options{})
	if err == nil {
		t.Fatal("expected starvation deadlock")
	}
	if !strings.Contains(err.Error(), "iter=") {
		t.Fatalf("deadlock report %q lacks blocked-iteration index", err)
	}
}
