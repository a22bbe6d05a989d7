package runtime

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/queue"
	"dswp/internal/workloads"
)

// TestQueuePolicyCountsPackedValues: a queue policy is evaluated once per
// value, the values of a packet included. On list traversal's flow-packed
// pipeline (queue 0 carries a 2-word packet per iteration),
// error:every(k) must fail the run with exactly k-1 values delivered — k
// even lands mid-packet — at either capacity and on both substrates.
func TestQueuePolicyCountsPackedValues(t *testing.T) {
	p := workloads.ListTraversal(300)
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{SkipProfitability: true, PackFlows: true})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewPlan(tr.Threads)
	if err != nil {
		t.Fatal(err)
	}
	const q = 0
	if w := plan.packWidth[q]; w < 2 {
		t.Fatalf("queue %d packet width %d: the test needs a packed queue", q, w)
	}
	for _, k := range []int64{1, 2, 37, 100} {
		for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
			for _, qcap := range []int{1, 8} {
				tag := fmt.Sprintf("every(%d) %s cap %d", k, kind, qcap)
				m := obs.NewMetrics(len(tr.Threads), tr.NumQueues)
				_, err := Run(tr.Threads, Options{
					QueueCap: qcap, Queue: kind, Mem: p.Mem, Regs: p.Regs, Plan: plan, Recorder: m,
					Faults: &FaultPlan{Queue: map[int]failpoint.Policy{
						q: {Action: failpoint.ActError, Every: k}}},
				})
				var qf *QueueFaultError
				if !errors.As(err, &qf) || qf.Queue != q {
					t.Fatalf("%s: want *QueueFaultError on queue %d, got %v", tag, q, err)
				}
				if got := m.Queue(q).Produces; got != k-1 {
					t.Fatalf("%s: %d values delivered before the fault, want %d", tag, got, k-1)
				}
			}
		}
	}
}

// TestPanicPolicyExactOnPackedFlows: every flow instruction retires on
// its own, so a thread policy triggers at exactly its nth instruction,
// inside a packet too. In packedPipelineFns the producer retires its
// 3-wide produce packet as steps 7-9 (14-16 in the second iteration) and
// the consumer its consume packet as steps 6-8.
func TestPanicPolicyExactOnPackedFlows(t *testing.T) {
	for _, c := range []struct {
		thread int
		nth    int64
	}{
		{0, 6},  // scalar instruction before the packet
		{0, 7},  // first produce of the packet
		{0, 8},  // inside the produce packet
		{0, 9},  // last produce of the packet
		{0, 15}, // inside the second iteration's packet
		{1, 6},  // first consume of the packet
		{1, 7},  // inside the consume packet
		{1, 8},  // last consume of the packet
	} {
		for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
			_, err := Run(packedPipelineFns(t), Options{QueueCap: 4, Queue: kind,
				Faults: &FaultPlan{Seed: 3, Thread: map[int]failpoint.Policy{
					c.thread: {Action: failpoint.ActPanic, Msg: "boom", Nth: c.nth}}}})
			var sf *StageFailure
			if !errors.As(err, &sf) || sf.Thread != c.thread {
				t.Fatalf("thread %d nth(%d) %s: want a *StageFailure, got %v", c.thread, c.nth, kind, err)
			}
			if want := fmt.Sprintf("at step %d ", c.nth); !strings.Contains(sf.Value, want) {
				t.Fatalf("thread %d nth(%d) %s: panic %q, want it %q", c.thread, c.nth, kind, sf.Value, want)
			}
		}
	}
}
