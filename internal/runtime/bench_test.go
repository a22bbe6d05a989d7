package runtime

import (
	"testing"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/queue"
	"dswp/internal/workloads"
)

// benchProgram builds the listsum workload (Figure 2's list-of-lists sum)
// transformed into a 2-thread pipeline, the same program the observability
// acceptance run exercises.
func benchProgram(b *testing.B) ([]*ir.Function, *workloads.Program, int) {
	b.Helper()
	p := workloads.ListOfLists(100, 6)
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		b.Fatalf("profile: %v", err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
		NumThreads: 2, SkipProfitability: true,
	})
	if err != nil {
		b.Fatalf("transform: %v", err)
	}
	return tr.Threads, p, tr.NumQueues
}

func benchRun(b *testing.B, mk func(threads, queues int) obs.Recorder) {
	fns, p, queues := benchProgram(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rec obs.Recorder
		if mk != nil {
			rec = mk(len(fns), queues)
		}
		res, err := Run(fns, Options{Mem: p.Mem, Regs: p.Regs, Recorder: rec})
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		_ = res
	}
}

// BenchmarkRuntimeNoop is the disabled-instrumentation baseline: a nil
// Recorder, so every emission site pays exactly one nil check. The
// observability contract is that this stays within 5% of the
// pre-instrumentation runtime.
func BenchmarkRuntimeNoop(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkRuntimeInstrumented runs with full metrics aggregation plus
// event tracing attached, bounding the cost of -metrics -trace.
func BenchmarkRuntimeInstrumented(b *testing.B) {
	benchRun(b, func(threads, queues int) obs.Recorder {
		m := obs.NewMetrics(threads, queues)
		tr := obs.NewTrace(threads, 0)
		return obs.Multi(m, tr)
	})
}

// BenchmarkRuntimeQueueKind is the end-to-end Fig. 6a-style rerun on the
// real goroutine runtime: the same transformed pipeline executed under each
// communication substrate, with and without compiler-side flow packing.
// ns/op is whole-pipeline wall time, so the channel/ring delta here is the
// communication cost the paper's synchronization array is meant to remove.
func BenchmarkRuntimeQueueKind(b *testing.B) {
	for _, packed := range []bool{false, true} {
		p := workloads.MCF()
		prof, err := profile.Collect(p.F, p.Options())
		if err != nil {
			b.Fatalf("profile: %v", err)
		}
		tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
			NumThreads: 2, SkipProfitability: true, PackFlows: packed,
		})
		if err != nil {
			b.Fatalf("transform: %v", err)
		}
		for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
			name := "kind=" + kind.String() + "/pack=off"
			if packed {
				name = "kind=" + kind.String() + "/pack=on"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Run(tr.Threads, Options{Mem: p.Mem, Regs: p.Regs, Queue: kind}); err != nil {
						b.Fatalf("run: %v", err)
					}
				}
			})
		}
	}
}

// BenchmarkExecutors runs one suite loop (wc, a balanced two-stage
// split) on both executors of lowered code: the untransformed loop on the
// interpreter, the sequential baseline, and the DSWP pipeline on the ring
// substrate with a warm Plan and Instance, as the loops benchmark runs it.
// ns/op is one whole run; the ratio of the two is the pipeline's speedup.
func BenchmarkExecutors(b *testing.B) {
	ref := workloads.WC()
	p := workloads.WC()
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		b.Fatalf("profile: %v", err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{})
	if err != nil {
		b.Fatalf("transform: %v", err)
	}
	plan, err := NewPlan(tr.Threads)
	if err != nil {
		b.Fatalf("plan: %v", err)
	}
	inst := plan.NewInstance(queue.KindRing, 0)
	b.Run("interp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := interp.Run(ref.F, ref.Options()); err != nil {
				b.Fatalf("interp: %v", err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Run(tr.Threads, Options{Queue: queue.KindRing, Plan: plan, Instance: inst,
				Mem: p.Mem, Regs: p.Regs}); err != nil {
				b.Fatalf("pipeline: %v", err)
			}
		}
	})
}
