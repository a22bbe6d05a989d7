package runtime

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/queue"
	"dswp/internal/workloads"
)

// TestOneThreadRunMatchesInterp: both executors run the same lowered
// code, so a one-thread concurrent run of every suite program's
// untransformed loop must end in the interpreter's state, with the same
// retired steps and the same per-instruction counts.
func TestOneThreadRunMatchesInterp(t *testing.T) {
	suite := append(workloads.Table1Suite(), workloads.CaseStudies()...)
	suite = append(suite, workloads.ReplicationSuite()...)
	for _, b := range suite {
		p := b.Build()
		want, err := interp.Run(p.F, p.Options())
		if err != nil {
			t.Fatalf("%s: interp: %v", b.Name, err)
		}
		for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
			got, err := Run([]*ir.Function{p.F}, Options{Queue: kind, Mem: p.Mem, Regs: p.Regs})
			if err != nil {
				t.Fatalf("%s %s: runtime: %v", b.Name, kind, err)
			}
			if g, w := workloads.StateDigest(got), workloads.StateDigest(want); g != w {
				t.Errorf("%s %s: digest %016x, interp %016x", b.Name, kind, g, w)
			}
			if g, w := got.Threads[0].Steps, want.Threads[0].Steps; g != w {
				t.Errorf("%s %s: steps %d, interp %d", b.Name, kind, g, w)
			}
			if !slices.Equal(got.Threads[0].Counts, want.Threads[0].Counts) {
				t.Errorf("%s %s: per-instruction counts differ from interp", b.Name, kind)
			}
		}
	}
}

// iterLog counts iteration events.
type iterLog struct{ iters int }

func (l *iterLog) Record(e obs.Event) {
	if e.Kind == obs.KIteration {
		l.iters++
	}
}

// TestLowerEdgeCases runs the corner cases of lowering on both executors
// and checks they agree with each other and with the IR's semantics.
func TestLowerEdgeCases(t *testing.T) {
	fellOff := ir.MustParse("func f {\nentry:\n    r1 = const 1\n    ret\n}\n")
	fellOff.Blocks[0].Instrs = fellOff.Blocks[0].Instrs[:1] // drop the ret

	for _, tc := range []struct {
		name string
		fn   *ir.Function
		// start resumes at a block with r1 = 7 (interpreter only: the
		// concurrent runtime always starts at the entry).
		start string
		// Exactly one of the outcomes below is set.
		liveOut    int64 // r2 on success
		steps      int64
		iterEvents int    // back-edge transfers (the runtime's KIteration events)
		errText    string // substring of both executors' errors
		deadlock   string // block[pc] "instr" of the blocked thread
		// iters is the blocked thread's completed outer-loop iterations;
		// a loop-free thread reads -1 on both executors.
		iters int64
	}{
		{
			name: "fall-through into an empty block",
			fn: ir.MustParse(`func f {
  liveout r2
entry:
    r1 = const 5
empty:
next:
    r2 = add r1, r1
    ret
}
`),
			liveOut: 10, steps: 3,
		},
		{
			name: "resume at a block after an empty one",
			fn: ir.MustParse(`func f {
  liveout r2
entry:
    r1 = const 5
empty:
next:
    r2 = add r1, r1
    ret
}
`),
			start: "empty", liveOut: 14, steps: 2,
		},
		{
			name: "branch whose false target is the back edge",
			fn: ir.MustParse(`func f {
  liveout r2
entry:
    r2 = const 0
    r3 = const 1
    r4 = const 5
    jump loop
loop:
    r2 = add r2, r3
    r5 = cmpge r2, r4
    br r5, done, loop
done:
    ret
}
`),
			liveOut: 5, steps: 4 + 5*3 + 1, iterEvents: 4,
		},
		{
			name: "branch whose false target is the outer header counts iterations",
			fn: ir.MustParse(`func f {
entry:
    r2 = const 0
    r3 = const 1
    r4 = const 5
    jump loop
loop:
    r2 = add r2, r3
    r5 = cmpge r2, r4
    br r5, done, loop
done:
    consume r9 = [0]
    ret
}
`),
			deadlock: `done[0] "consume r9 = [0]"`, iters: 4,
		},
		{
			name: "jump to the outer header counts an iteration, inner back edges do not",
			fn: ir.MustParse(`func f {
entry:
    r1 = const 0
    r2 = const 1
    r3 = const 3
    jump outer
outer:
    r5 = const 0
inner:
    r5 = add r5, r2
    r6 = cmplt r5, r3
    br r6, inner, latch
latch:
    r1 = add r1, r2
    r4 = cmplt r1, r3
    br r4, cont, exit
cont:
    jump outer
exit:
    r7 = const 9
    consume r9 = [0]
    ret
}
`),
			deadlock: `exit[1] "consume r9 = [0]"`, iters: 2,
		},
		{
			name: "block and pc of a blocked consume",
			fn: ir.MustParse(`func f {
entry:
    r1 = const 1
    jump body
body:
    r2 = const 2
    consume r3 = [0]
    ret
}
`),
			deadlock: `body[1] "consume r3 = [0]"`, iters: -1,
		},
		{
			name:    "fell off the end",
			fn:      fellOff,
			errText: "fell off the end of block entry",
		},
		{
			name: "load out of bounds",
			fn: ir.MustParse(`func f {
entry:
    r1 = const 100000
    r2 = load [r1+3] @?
    ret
}
`),
			errText: "r2 = load [r1+3] @?: interp: load out of bounds: addr 100003, size 16",
		},
		{
			name: "store out of bounds",
			fn: ir.MustParse(`func f {
entry:
    r1 = const -4
    store r1, [r1+1] @?
    ret
}
`),
			errText: "store r1, [r1+1] @?: interp: store out of bounds: addr -3, size 16",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var regs []int64
			if tc.start != "" {
				regs = make([]int64, tc.fn.MaxReg()+1)
				regs[1] = 7
			}
			rlog := &iterLog{}
			ires, ierr := interp.Run(tc.fn, interp.Options{StartBlock: tc.start, RegFile: regs})
			var rres *interp.Result
			var rerr error
			if tc.start == "" {
				rres, rerr = Run([]*ir.Function{tc.fn}, Options{Recorder: rlog, Timeout: 10 * time.Second})
			}
			switch {
			case tc.errText != "":
				if ierr == nil || !strings.Contains(ierr.Error(), tc.errText) {
					t.Errorf("interp err = %v, want it to contain %q", ierr, tc.errText)
				}
				if rerr == nil || !strings.Contains(rerr.Error(), tc.errText) {
					t.Errorf("runtime err = %v, want it to contain %q", rerr, tc.errText)
				}
			case tc.deadlock != "":
				want := fmt.Sprintf("f/%s iter=%d", tc.deadlock, tc.iters)
				if ierr == nil || !strings.Contains(ierr.Error(), want) {
					t.Errorf("interp err = %v, want it to contain %q", ierr, want)
				}
				var derr *DeadlockError
				if !errors.As(rerr, &derr) {
					t.Fatalf("runtime err = %v, want *DeadlockError", rerr)
				}
				th := derr.Threads[0]
				if got := fmt.Sprintf("%s[%d] %q", th.Block, th.PC, th.Instr); got != tc.deadlock {
					t.Errorf("runtime blocked at %s, want %s", got, tc.deadlock)
				}
				if th.Iter != tc.iters {
					t.Errorf("runtime iter = %d, want %d", th.Iter, tc.iters)
				}
			default:
				if ierr != nil {
					t.Fatalf("interp: %v", ierr)
				}
				if got := ires.LiveOuts[ir.Reg(2)]; got != tc.liveOut {
					t.Errorf("interp r2 = %d, want %d", got, tc.liveOut)
				}
				if got := ires.Threads[0].Steps; got != tc.steps {
					t.Errorf("interp steps = %d, want %d", got, tc.steps)
				}
				if tc.start != "" {
					return
				}
				if rerr != nil {
					t.Fatalf("runtime: %v", rerr)
				}
				if got := rres.LiveOuts[ir.Reg(2)]; got != tc.liveOut {
					t.Errorf("runtime r2 = %d, want %d", got, tc.liveOut)
				}
				if got := rres.Threads[0].Steps; got != tc.steps {
					t.Errorf("runtime steps = %d, want %d", got, tc.steps)
				}
				if !slices.Equal(rres.Threads[0].Counts, ires.Threads[0].Counts) {
					t.Errorf("runtime counts %v, interp %v", rres.Threads[0].Counts, ires.Threads[0].Counts)
				}
				if rlog.iters != tc.iterEvents {
					t.Errorf("runtime iteration events = %d, want %d", rlog.iters, tc.iterEvents)
				}
			}
		})
	}
}
