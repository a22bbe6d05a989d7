package psdswp_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/validate"
	"dswp/internal/workloads"
)

// transform applies DSWP to a workload with the harness defaults.
func transform(t *testing.T, p *workloads.Program, pack bool) *core.Transformed {
	t.Helper()
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
		NumThreads: 2, SkipProfitability: true, PackFlows: pack,
	})
	if errors.Is(err, core.ErrSingleSCC) || errors.Is(err, core.ErrUnprofitable) {
		t.Skipf("not pipelinable: %v", err)
	}
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return tr
}

func TestAnalyzeCompress(t *testing.T) {
	var p *workloads.Program
	for _, wb := range workloads.Table1Suite() {
		if strings.Contains(wb.Name, "compress") {
			p = wb.Build()
		}
	}
	if p == nil {
		t.Fatal("no compress workload in Table 1 suite")
	}
	tr := transform(t, p, false)
	rep := psdswp.Analyze(tr)
	if !rep.Replicable() {
		t.Fatalf("compress worker stage should be replicable:\n%s", rep)
	}
	if rep.Stage != 1 {
		t.Fatalf("chose stage %d, want 1", rep.Stage)
	}
	if rep.Width < 2 {
		t.Fatalf("width %d, want >= 2 (stage weights %v)", rep.Width, tr.Partition.StageWeights())
	}
	if len(rep.ReplicableSCCs()) == 0 {
		t.Fatal("no replicable SCCs reported")
	}
	if !strings.Contains(rep.String(), "replicate stage 1") {
		t.Fatalf("report does not state the decision:\n%s", rep)
	}
}

// TestReplicatedDifferential is the core bit-identical-state check: every
// built-in workload with a replicable stage is replicated at width 2 and 4,
// for the plain and the flow-packed transform, and executed under the
// deterministic interpreter (capacity sweep, flow-conservation metrics)
// and the concurrent runtime (both queue kinds x capacities). Every run
// must match the sequential baseline bit for bit.
func TestReplicatedDifferential(t *testing.T) {
	builders := append(workloads.Table1Suite(), workloads.CaseStudies()...)
	replicated := 0
	for _, wb := range builders {
		wb := wb
		t.Run(wb.Name, func(t *testing.T) {
			p := wb.Build()
			iopts := p.Options()
			base, err := interp.Run(p.F, iopts)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for _, pack := range []bool{false, true} {
				tr := transform(t, p, pack)
				rep := psdswp.Analyze(tr)
				if !rep.Replicable() {
					t.Skipf("not replicable: %s", rep)
				}
				for _, width := range []int{2, 4} {
					res, err := psdswp.Replicate(tr, rep.Stage, width)
					if err != nil {
						t.Fatalf("pack=%t width=%d: %v", pack, width, err)
					}
					replicated++
					runReplicated(t, p, base, res, fmt.Sprintf("pack=%t width=%d", pack, width))
				}
			}
		})
	}
	if replicated == 0 {
		t.Error("no workload exercised replication")
	}
}

func runReplicated(t *testing.T, p *workloads.Program, base *interp.Result, res *psdswp.Result, tag string) {
	t.Helper()
	tr := res.Tr
	// Deterministic interpreter (unbounded queues).
	got, err := interp.RunThreads(tr.Threads, p.Options())
	if err != nil {
		t.Fatalf("%s interp: %v", tag, err)
	}
	if cerr := validate.Compare(tag, base, got); cerr != nil {
		t.Fatalf("%s interp: %v", tag, cerr)
	}
	// Concurrent runtime, both queue substrates, with flow-conservation
	// metrics (the exit drain keeps produces == consumes even for the
	// in-flight carried value of the final iteration).
	for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
		for _, cap := range []int{1, 2, 32} {
			m := obs.NewMetrics(len(tr.Threads), tr.NumQueues)
			got, err := rt.RunCtx(context.Background(), tr.Threads, rt.Options{
				QueueCap: cap, Queue: kind, Mem: p.Mem, Regs: p.Regs,
				Timeout: 30 * time.Second, Recorder: m,
			})
			if err != nil {
				t.Fatalf("%s runtime %s cap=%d: %v", tag, kind, cap, err)
			}
			if cerr := validate.Compare(tag, base, got); cerr != nil {
				t.Fatalf("%s runtime %s cap=%d: %v", tag, kind, cap, cerr)
			}
			for _, v := range m.CheckConsistency() {
				t.Errorf("%s runtime %s cap=%d: metrics: %s", tag, kind, cap, v)
			}
		}
	}
}

// TestRejectionReasons checks the planner explains itself: every stage of
// every built-in workload gets either a replicable verdict or a non-empty
// reason, and known-sequential kernels are rejected for the right cause.
func TestRejectionReasons(t *testing.T) {
	builders := append(workloads.Table1Suite(), workloads.CaseStudies()...)
	for _, wb := range builders {
		p := wb.Build()
		tr := transform(t, p, false)
		rep := psdswp.Analyze(tr)
		for _, d := range rep.Decisions {
			if !d.Replicable && d.Reason == "" {
				t.Errorf("%s stage %d: rejected without a reason", p.Name, d.Stage)
			}
			if d.Replicable && d.Reason != "" {
				t.Errorf("%s stage %d: replicable but carries reason %q", p.Name, d.Stage, d.Reason)
			}
		}
	}

	// The list-traversal pedagogy kernel's worker stage consumes the
	// critical-path pointer chase; whatever the precise shape, stage 0 must
	// always be refused (it owns loop control).
	p := workloads.ListTraversal(50)
	tr := transform(t, p, false)
	if sp, reason := psdswp.AnalyzeStageForTest(tr, 0); sp != nil || reason == "" {
		t.Errorf("stage 0 must be rejected, got plan=%v reason=%q", sp != nil, reason)
	}
}

func TestReplicateErrors(t *testing.T) {
	var p *workloads.Program
	for _, wb := range workloads.Table1Suite() {
		if strings.Contains(wb.Name, "compress") {
			p = wb.Build()
		}
	}
	tr := transform(t, p, false)
	if _, err := psdswp.Replicate(tr, 1, 1); err == nil {
		t.Error("width 1 must be rejected")
	}
	if _, err := psdswp.Replicate(tr, 0, 2); err == nil {
		t.Error("stage 0 must be rejected")
	}
	if _, err := psdswp.Replicate(tr, 1, 2); err != nil {
		t.Errorf("legal replication failed: %v", err)
	}
}

func TestResultHelpers(t *testing.T) {
	r := &psdswp.Result{Stage: 1, Width: 3}
	if got := r.ReplicaThreads(); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("ReplicaThreads = %v", got)
	}
	if r.ThreadIndex(0) != 0 || r.ThreadIndex(1) != 1 || r.ThreadIndex(2) != 4 {
		t.Errorf("ThreadIndex mapping wrong: %d %d %d",
			r.ThreadIndex(0), r.ThreadIndex(1), r.ThreadIndex(2))
	}
}
