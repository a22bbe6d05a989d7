package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/obs"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/workloads"
)

// loopsBench is the loops workload: the paper's claim on real cores.
// Every pass compiles all fourteen suite programs and runs each loop DSWP
// pipelines at the default config twice, back to back: sequentially on
// the interpreter and pipelined on the ring-substrate runtime with a warm
// Plan and Instance. No engine, supervisor or checkpoint store is called.
type loopsBench struct {
	g     *gate
	progs []*loopProg
	// order is a seeded permutation of progs; pass k starts k places into
	// it, so host drift during a pass falls on every loop alike.
	order []int
	// seqFirst, seeded, says whether the first pair runs its sequential
	// run first; later pairs alternate.
	seqFirst bool
	sim      simTotals
}

type loopProg struct {
	name  string
	build func() *workloads.Program
	ref   *workloads.Program // untransformed: what the interpreter runs
	pipe  *workloads.Program // transformed in place; supplies Mem and Regs
	tr    *core.Transformed  // nil when DSWP declines the loop
	plan  *rt.Plan
	inst  *rt.Instance
}

func setupLoops(seed int64) (bench, error) {
	b := &loopsBench{g: newGate()}
	pipelined := 0
	for _, sb := range suite() {
		lp := &loopProg{name: sb.Name, build: sb.Build, ref: sb.Build()}
		if err := b.g.reference(lp.name, lp.ref); err != nil {
			return nil, err
		}
		p := sb.Build()
		tr, _, err := compile(p, core.Config{})
		if err != nil {
			return nil, err
		}
		b.progs = append(b.progs, lp)
		if tr == nil {
			continue
		}
		pipelined++
		lp.pipe, lp.tr = p, tr
		if lp.plan, err = rt.NewPlan(tr.Threads); err != nil {
			return nil, fmt.Errorf("plan %s: %w", lp.name, err)
		}
		lp.inst = lp.plan.NewInstance(queue.KindRing, 0)
		if err := b.sim.simulate(b.g, lp.name, sb.Build(), tr.Threads); err != nil {
			return nil, err
		}
		// Warm the instance, the code paths and the heap.
		seqRes, _ := lp.runSeq()
		pipeRes, _ := lp.runPipe(nil)
		if !b.g.matches(lp.name, resultDigest(seqRes)) || !b.g.matches(lp.name, resultDigest(pipeRes)) {
			return nil, fmt.Errorf("warm-up of %s failed or differs from the reference", lp.name)
		}
	}
	if pipelined == 0 {
		return nil, errors.New("no suite program pipelines at the default config")
	}
	r := rand.New(rand.NewSource(seed))
	b.order = r.Perm(len(b.progs))
	b.seqFirst = r.Intn(2) == 0
	return b, nil
}

// runSeq runs the untransformed loop on the interpreter. A failed run
// returns a nil result, which the gate counts as not ok.
func (lp *loopProg) runSeq() (*interp.Result, time.Duration) {
	start := time.Now()
	res, err := interp.Run(lp.ref.F, lp.ref.Options())
	el := time.Since(start)
	if err != nil {
		return nil, el
	}
	return res, el
}

// runPipe runs the pipeline on the ring substrate with the warm plan and
// instance; rec is nil except for the traced breakdown run.
func (lp *loopProg) runPipe(rec obs.Recorder) (*interp.Result, time.Duration) {
	start := time.Now()
	res, err := rt.Run(lp.tr.Threads, rt.Options{
		Queue: queue.KindRing, Plan: lp.plan, Instance: lp.inst,
		Mem: lp.pipe.Mem, Regs: lp.pipe.Regs, Recorder: rec,
	})
	el := time.Since(start)
	if err != nil {
		return nil, el
	}
	return res, el
}

// progSamples holds one program's samples, in ms unless named otherwise.
type progSamples struct {
	seq, pipe, compile []float64
	// Traced passes only.
	profile, apply, sccs, queues, instrs []float64
	pipeObs                              []float64 // pipelined runs with obs.Metrics
	busy, full, empty, values, stalls    []float64
}

type loopSamples struct {
	per    []progSamples // indexed like loopsBench.progs
	passes int
}

// sum adds, over programs, the median of the field f picks.
func (s *loopSamples) sum(f func(*progSamples) []float64) float64 {
	var groups [][]float64
	for i := range s.per {
		groups = append(groups, f(&s.per[i]))
	}
	return sumOfMedians(groups)
}

// geoMedian is the geometric mean, over programs with samples, of the
// median of the field f picks: req_p50_ms for loops.
func (s *loopSamples) geoMedian(f func(*progSamples) []float64) float64 {
	var meds []float64
	for i := range s.per {
		if xs := f(&s.per[i]); len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return geomean(meds)
}

// passes runs whole passes until d has elapsed (at least one). traced
// keeps the layer-by-layer figures and adds to each pair a pipelined run
// with an obs.Metrics recorder attached.
func (b *loopsBench) passes(d time.Duration, traced bool) (*loopSamples, error) {
	s := &loopSamples{per: make([]progSamples, len(b.progs))}
	n := len(b.order)
	deadline := time.Now().Add(d)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for k := 0; k < n; k++ {
			i := b.order[(k+pass)%n]
			lp, ps := b.progs[i], &s.per[i]
			tr, ct, err := compile(lp.build(), core.Config{})
			if err != nil {
				return nil, err
			}
			if (tr == nil) != (lp.tr == nil) {
				return nil, fmt.Errorf("%s: DSWP's decision changed between compiles", lp.name)
			}
			ps.compile = append(ps.compile, millis(ct.profile+ct.apply))
			if traced {
				ps.profile = append(ps.profile, millis(ct.profile))
				ps.apply = append(ps.apply, millis(ct.apply))
				if tr != nil {
					ps.sccs = append(ps.sccs, float64(tr.Stats.SCCs))
					ps.queues = append(ps.queues, float64(tr.NumQueues))
				}
			}
			if lp.tr == nil {
				continue
			}
			var (
				seqRes, pipeRes *interp.Result
				seqD, pipeD     time.Duration
			)
			runSeq := func() { seqRes, seqD = lp.runSeq() }
			runPipe := func() { pipeRes, pipeD = lp.runPipe(nil) }
			if b.seqFirst == ((pass+k)%2 == 0) {
				runSeq()
				runPipe()
			} else {
				runPipe()
				runSeq()
			}
			seqOK := b.g.checkResult(lp.name, seqRes)
			pipeOK := b.g.checkResult(lp.name, pipeRes)
			if seqOK && pipeOK { // a failed pair has no paired ratio
				ps.seq = append(ps.seq, millis(seqD))
				ps.pipe = append(ps.pipe, millis(pipeD))
			}
			if !traced {
				continue
			}
			// The pair above stays untraced, so its times are the layer
			// self times; a third run with obs.Metrics attached gives the
			// stage and queue breakdown and the tracing overhead.
			m := obs.NewMetrics(len(lp.tr.Threads), lp.tr.NumQueues)
			obsRes, obsD := lp.runPipe(m)
			if !b.g.checkResult(lp.name, obsRes) || !seqOK {
				continue
			}
			ps.instrs = append(ps.instrs, float64(seqRes.Threads[0].Steps))
			ps.pipeObs = append(ps.pipeObs, millis(obsD))
			var st layers
			st.addStages(m)
			ps.busy = append(ps.busy, st.busyMs)
			ps.full = append(ps.full, st.fullMs)
			ps.empty = append(ps.empty, st.emptyMs)
			ps.values = append(ps.values, st.values)
			ps.stalls = append(ps.stalls, st.stalls)
		}
		s.passes++
	}
	return s, nil
}

func (b *loopsBench) gate() *gate { return b.g }

func (b *loopsBench) close() {}

// measure runs passes for d. A loops "request" is one pipelined run of
// one loop. The loops differ fivefold in length, so a pooled median would
// fall between two loops' clusters and jump with their counts; instead
// req_p50_ms and req_tail_ms are geometric means over loops of each
// loop's median and tail, and req_per_s is pipelined runs per second at
// the per-loop medians.
func (b *loopsBench) measure(d time.Duration) (report, error) {
	s, err := b.passes(d, false)
	if err != nil {
		return report{}, err
	}
	var r report
	var seqs, pipes [][]float64
	var tails []float64
	for i, lp := range b.progs {
		ps := &s.per[i]
		if lp.tr == nil {
			r.note("loop %-18s declined by DSWP; compile_ms %.3f", lp.name, median(ps.compile))
			continue
		}
		if len(ps.pipe) == 0 {
			return report{}, fmt.Errorf("%s: no pair completed", lp.name)
		}
		seqs, pipes = append(seqs, ps.seq), append(pipes, ps.pipe)
		t := tailOf(ps.pipe)
		tails = append(tails, t.Value)
		q1, _, q3 := quartiles(ps.pipe)
		r.note("loop %-18s seq_ms %7.3f pipe_ms %7.3f (q1 %.3f q3 %.3f, p%g %.3f with %d of %d beyond) paired_x %.3f compile_ms %.3f",
			lp.name, median(ps.seq), median(ps.pipe), q1, q3, t.P, t.Value, t.Beyond, t.N,
			pairedSpeedup([][]float64{ps.seq}, [][]float64{ps.pipe}), median(ps.compile))
	}
	pipeMs := sumOfMedians(pipes)
	r.note("%d passes", s.passes)
	r.add("speedup", pairedSpeedup(seqs, pipes), "x")
	r.add("seq_ms", sumOfMedians(seqs), "ms")
	r.add("pipe_ms", pipeMs, "ms")
	r.add("sim_speedup", geomean(b.sim.speedups), "x")
	r.add("compile_ms", s.sum(func(p *progSamples) []float64 { return p.compile }), "ms")
	r.add("req_per_s", float64(len(pipes))/(pipeMs/1000), "req/s")
	r.add("req_p50_ms", s.geoMedian(func(p *progSamples) []float64 { return p.pipe }), "ms")
	r.add("req_tail_ms", geomean(tails), "ms")
	return r, nil
}

func (b *loopsBench) ledger(d time.Duration) (report, error) {
	mw := startMemWindow()
	u, err := b.passes(d/2, false)
	if err != nil {
		return report{}, err
	}
	var l layers
	mw.stop(&l, u.passes)
	t, err := b.passes(d/2, true)
	if err != nil {
		return report{}, err
	}
	l.profileMs = t.sum(func(p *progSamples) []float64 { return p.profile })
	l.applyMs = t.sum(func(p *progSamples) []float64 { return p.apply })
	l.sccs = t.sum(func(p *progSamples) []float64 { return p.sccs })
	l.queues = t.sum(func(p *progSamples) []float64 { return p.queues })
	l.interpMs = t.sum(func(p *progSamples) []float64 { return p.seq })
	l.instrs = t.sum(func(p *progSamples) []float64 { return p.instrs })
	l.runtimeMs = t.sum(func(p *progSamples) []float64 { return p.pipe })
	l.busyMs = t.sum(func(p *progSamples) []float64 { return p.busy })
	l.fullMs = t.sum(func(p *progSamples) []float64 { return p.full })
	l.emptyMs = t.sum(func(p *progSamples) []float64 { return p.empty })
	l.values = t.sum(func(p *progSamples) []float64 { return p.values })
	l.stalls = t.sum(func(p *progSamples) []float64 { return p.stalls })
	l.sim = b.sim
	l.pipeUntraced = l.runtimeMs
	l.pipeTraced = t.sum(func(p *progSamples) []float64 { return p.pipeObs })
	l.p50Untraced, l.p50Traced = t.geoMedian(func(p *progSamples) []float64 { return p.pipe }),
		t.geoMedian(func(p *progSamples) []float64 { return p.pipeObs })
	// One pass is the loops operation: its untraced time is the suite
	// compiled once and every loop run once each way.
	l.opMs = u.sum(func(p *progSamples) []float64 { return p.compile }) +
		u.sum(func(p *progSamples) []float64 { return p.seq }) +
		u.sum(func(p *progSamples) []float64 { return p.pipe })
	r := l.report()
	r.note("%d untraced and %d traced passes", u.passes, t.passes)
	return r, nil
}
