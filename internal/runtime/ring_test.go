package runtime

import (
	"context"
	"errors"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/queue"
	"dswp/internal/workloads"
)

// TestRingPipelineAcrossCapacities reruns the reference pipeline on the
// ring substrate: kind must never change results, at any capacity.
func TestRingPipelineAcrossCapacities(t *testing.T) {
	for _, cap := range []int{1, 2, 3, 32} {
		res, err := Run(pipelineFns(t), Options{QueueCap: cap, Queue: queue.KindRing})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if got := res.LiveOuts[ir.Reg(9)]; got != 55 {
			t.Fatalf("cap %d: pipeline sum = %d, want 55", cap, got)
		}
	}
}

// TestRingMatchesChannelOnTransformedLoop pushes real DSWP output through
// both substrates and diffs memory images and live-outs against sequential.
func TestRingMatchesChannelOnTransformedLoop(t *testing.T) {
	p := workloads.ListOfLists(40, 5)
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
		for _, cap := range []int{1, 2, 32} {
			res, err := Run(tr.Threads, Options{QueueCap: cap, Queue: kind, Mem: p.Mem, Regs: p.Regs})
			if err != nil {
				t.Fatalf("%v cap %d: %v", kind, cap, err)
			}
			if d := base.Mem.Diff(res.Mem); d != -1 {
				t.Fatalf("%v cap %d: memory diverges at word %d", kind, cap, d)
			}
			for r, v := range base.LiveOuts {
				if res.LiveOuts[r] != v {
					t.Fatalf("%v cap %d: live-out %s = %d, want %d", kind, cap, r, res.LiveOuts[r], v)
				}
			}
		}
	}
}

// packedPipelineFns is a hand-packed two-stage pipeline: three values per
// iteration travel on ONE queue (a 3-word packet), each through its own
// produce and consume instruction.
func packedPipelineFns(t *testing.T) []*ir.Function {
	t.Helper()
	prod := ir.MustParse(`func producer {
  liveout r9
entry:
    r1 = const 0
    r5 = const 10
    r6 = const 1
    jump loop
loop:
    r1 = add r1, r6
    r2 = add r1, r1
    produce [0] = r1
    produce [0] = r2
    produce [0] = r1
    r3 = cmplt r1, r5
    br r3, loop, done
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
    consume r3 = [0]
    consume r4 = [0]
    r7 = add r7, r2
    r7 = add r7, r3
    r7 = add r7, r4
    r1 = add r1, r6
    r8 = cmplt r1, r5
    br r8, loop, done
done:
    produce [1] = r7
    ret
}
`)
	return []*ir.Function{prod, cons}
}

// TestPackedPipelineBothKinds runs the packet pipeline across kinds and
// capacities (1 and 2 scale to 3 and 6 slots, so the producer fills the
// queue mid-packet and blocks) and checks the observability invariants:
// per-queue produces == consumes, and flow counts match the program.
func TestPackedPipelineBothKinds(t *testing.T) {
	// sum over i=1..10 of (i + 2i + i) = 4 * 55 = 220.
	for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
		for _, cap := range []int{1, 2, 3, 32} {
			m := obs.NewMetrics(2, 2)
			res, err := Run(packedPipelineFns(t), Options{
				QueueCap: cap, Queue: kind, Recorder: m, RecordTrace: true,
			})
			if err != nil {
				t.Fatalf("%v cap %d: %v", kind, cap, err)
			}
			if got := res.LiveOuts[ir.Reg(9)]; got != 220 {
				t.Fatalf("%v cap %d: sum = %d, want 220", kind, cap, got)
			}
			if probs := m.CheckConsistency(); len(probs) > 0 {
				t.Fatalf("%v cap %d: metrics inconsistent: %v", kind, cap, probs)
			}
			if got := m.Queue(0).Produces; got != 30 {
				t.Fatalf("%v cap %d: queue 0 produces = %d, want 30", kind, cap, got)
			}
		}
	}
}

// TestRingDeadlockDetection reruns the watchdog acceptance cases on the
// ring substrate: blocked threads parked inside ring queues must still be
// seen, and occupancy consistency must hold in the verdict.
func TestRingDeadlockDetection(t *testing.T) {
	a := ir.MustParse("func a {\nentry:\n    consume r1 = [0]\n    produce [1] = r1\n    ret\n}\n")
	b := ir.MustParse("func b {\nentry:\n    consume r1 = [1]\n    produce [0] = r1\n    ret\n}\n")
	_, err := Run([]*ir.Function{a, b}, Options{Queue: queue.KindRing, Timeout: 10 * time.Second})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("cyclic: err = %v, want *DeadlockError", err)
	}
	for _, th := range derr.Threads {
		if th.State != "blocked-empty" {
			t.Errorf("cyclic: thread %d state = %q, want blocked-empty", th.Thread, th.State)
		}
	}

	full := ir.MustParse(`func a {
entry:
    r1 = const 7
    jump loop
loop:
    produce [0] = r1
    jump loop
}
`)
	_, err = Run([]*ir.Function{full}, Options{Queue: queue.KindRing, QueueCap: 1})
	if !errors.As(err, &derr) {
		t.Fatalf("full: err = %v, want *DeadlockError", err)
	}
	if got := derr.Threads[0].State; got != "blocked-full" {
		t.Fatalf("full: state = %q, want blocked-full", got)
	}
	if q := derr.Queues[0]; q.Len != 1 || q.Cap != 1 {
		t.Fatalf("full: queue occupancy = %d/%d, want 1/1", q.Len, q.Cap)
	}
}

// TestFlushBeforeBlockPingPong bounces one value per round trip between
// two threads over two ring queues, fewer values than any publication
// batch. Each thread holds its last value unpublished when it turns to
// wait on the other queue, so the run finishes only if the stage loop
// publishes every queue end it owns before it blocks; without that the
// watchdog reports a *DeadlockError.
func TestFlushBeforeBlockPingPong(t *testing.T) {
	ping := ir.MustParse(`func ping {
  liveout r1
entry:
    r1 = const 0
    r3 = const 0
    r5 = const 500
    r6 = const 1
    jump loop
loop:
    produce [0] = r1
    consume r1 = [1]
    r3 = add r3, r6
    r4 = cmplt r3, r5
    br r4, loop, done
done:
    ret
}
`)
	pong := ir.MustParse(`func pong {
entry:
    r3 = const 0
    r5 = const 500
    r6 = const 1
    jump loop
loop:
    consume r1 = [0]
    r1 = add r1, r6
    produce [1] = r1
    r3 = add r3, r6
    r4 = cmplt r3, r5
    br r4, loop, done
done:
    ret
}
`)
	for _, cap := range []int{1, 2, 8, 32, 256} {
		res, err := Run([]*ir.Function{ping, pong}, Options{Queue: queue.KindRing, QueueCap: cap, Timeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if got := res.LiveOuts[ir.Reg(1)]; got != 500 {
			t.Fatalf("cap %d: live-out r1 = %d, want 500", cap, got)
		}
	}
}

// TestPackedQueueCapacityScaling pins the width scaling in build: a block
// that produces w values onto one queue per visit (the shape flow packing
// emits) gets w times the configured capacity, so a packed pipeline keeps
// the same iterations of decoupling slack as its unpacked counterpart.
// Here two straight-line produces fit a "cap 1" queue and the thread
// terminates instead of wedging.
func TestPackedQueueCapacityScaling(t *testing.T) {
	a := ir.MustParse(`func a {
entry:
    r1 = const 7
    produce [0] = r1
    produce [0] = r1
    ret
}
`)
	for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
		if _, err := Run([]*ir.Function{a}, Options{Queue: kind, QueueCap: 1}); err != nil {
			t.Fatalf("%v: err = %v, want clean exit with width-scaled capacity", kind, err)
		}
	}
}

// TestRingCancellation: a thread parked inside a ring queue must observe
// context cancellation promptly and surface a *CanceledError.
func TestRingCancellation(t *testing.T) {
	stuck := ir.MustParse("func stuck {\nentry:\n    consume r1 = [0]\n    ret\n}\n")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Poll is large so the deadlock watchdog cannot win the race with the
	// cancellation we are testing.
	_, err := RunCtx(ctx, []*ir.Function{stuck}, Options{Queue: queue.KindRing, Poll: 200 * time.Millisecond})
	var cerr *CanceledError
	if !errors.As(err, &cerr) {
		t.Fatalf("err = %v, want *CanceledError", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; parked thread missed the done signal", elapsed)
	}
}

// TestDeadlockAtDepth: a cyclic partition at the default queue depth
// still ends in a *DeadlockError whose occupancy is consistent. Thread a
// fills q0 (1,500 values, more than its capacity) before it sends the
// value b waits for on q1, so a wedges on a full q0 and b on an empty q1
// on every schedule. Values are published before a thread waits, so the
// blocked-full queue reports Len == Cap on the ring too.
func TestDeadlockAtDepth(t *testing.T) {
	a := ir.MustParse(`func a {
entry:
    r1 = const 0
    r2 = const 1
    r3 = const 1500
    jump loop
loop:
    produce [0] = r1
    r1 = add r1, r2
    r4 = cmplt r1, r3
    br r4, loop, done
done:
    produce [1] = r1
    ret
}
`)
	b := ir.MustParse(`func b {
entry:
    consume r1 = [1]
    r2 = const 0
    r3 = const 1
    jump loop
loop:
    consume r4 = [0]
    r2 = add r2, r3
    r5 = cmplt r2, r1
    br r5, loop, done
done:
    ret
}
`)
	for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
		_, err := Run([]*ir.Function{a, b}, Options{Queue: kind, Timeout: 10 * time.Second})
		var derr *DeadlockError
		if !errors.As(err, &derr) {
			t.Fatalf("%s: err = %v, want *DeadlockError", kind, err)
		}
		want := []BlockInfo{
			{Thread: 0, Fn: "a", Block: "loop", PC: 0, Instr: "produce [0] = r1", State: "blocked-full", Queue: 0, Iter: DefaultQueueCap},
			{Thread: 1, Fn: "b", Block: "entry", PC: 0, Instr: "consume r1 = [1]", State: "blocked-empty", Queue: 1, Iter: 0},
		}
		for i, th := range derr.Threads {
			if th != want[i] {
				t.Errorf("%s: thread %d = %+v, want %+v", kind, i, th, want[i])
			}
		}
		if q := derr.Queues[0]; q.Len != DefaultQueueCap || q.Cap != DefaultQueueCap {
			t.Errorf("%s: q0 occupancy = %d/%d, want %d/%d", kind, q.Len, q.Cap, DefaultQueueCap, DefaultQueueCap)
		}
		if q := derr.Queues[1]; q.Len != 0 || q.Cap != DefaultQueueCap {
			t.Errorf("%s: q1 occupancy = %d/%d, want 0/%d", kind, q.Len, q.Cap, DefaultQueueCap)
		}
	}
}
