// Package validate is the differential robustness harness: it runs every
// DSWP-transformed program under (a) the deterministic round-robin
// interpreter (unbounded queues: the trace generator the cycle model
// replays), (b) the goroutine-backed concurrent runtime across
// queue-capacity sweeps, both communication substrates (channel and
// lock-free SPSC ring), and randomized GOMAXPROCS settings, and (c)
// seed-derived fault injection (per-queue delays, forced thread stalls,
// artificially tiny capacities), asserting identical memory images and
// live-outs versus sequential execution of the untransformed loop every
// time. Every leg also runs against the flow-packed transform
// (core.Config.PackFlows), so queue kind and packing are both proven to
// never change results. Workloads with a replicable stage (psdswp) rerun
// the interpreter and runtime legs on the width-2 and width-4 replicated
// pipelines, plus a supervised run that panics one replica, so
// parallel-stage replication is held to the same contract. The paper's
// correctness argument — the synchronization array plus an acyclic
// partition guarantees the original semantics under any schedule — is
// checked here as an executable claim rather than assumed.
//
// The runtime's capacity-sweep runs additionally carry an obs.Metrics
// recorder and assert flow conservation: on a clean run every queue's
// produce count equals its consume count.
//
// All randomness derives from Options.Seed, which is logged, so any
// failure reproduces from its report line alone.
package validate

import (
	"context"
	"errors"
	"fmt"
	stdruntime "runtime"
	"time"

	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/workloads"
)

// Options configures a validation sweep.
type Options struct {
	// Ctx, when set, bounds the whole sweep: it threads into every
	// execution leg (interpreter, concurrent runtime, supervisor) so an
	// engine-driven validation honors the server's deadline instead of
	// only its own per-run budgets. On expiry the sweep stops early with
	// Report.Aborted set; runs cut off by the external deadline are not
	// counted as failures. nil = context.Background().
	Ctx context.Context
	// Seed drives every randomized choice (fault plans, capacities,
	// GOMAXPROCS); 0 = 1. Reports echo it for reproduction.
	Seed uint64
	// Caps are the queue capacities to sweep (nil = {1, 2, 32}).
	Caps []int
	// FaultRuns is the number of randomized fault/schedule runs per
	// program (0 = 20; negative = none).
	FaultRuns int
	// Threads is the partition width handed to the transformation (0 = 2).
	Threads int
	// MaxSteps bounds each run (0 = 200M).
	MaxSteps int64
	// Timeout bounds each concurrent run's wall clock (0 = 30s).
	Timeout time.Duration
	// PinProcs disables the per-run GOMAXPROCS randomization (it is on by
	// default because schedule diversity is the point of the harness).
	PinProcs bool
	// Logf, when set, receives progress lines including the seed.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Caps == nil {
		o.Caps = []int{1, 2, 32}
	}
	if o.FaultRuns == 0 {
		o.FaultRuns = 20
	}
	if o.Threads == 0 {
		o.Threads = 2
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 200_000_000
	}
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Report is the validation outcome for one program.
type Report struct {
	Name string
	// Seed echoes the sweep seed so failures reproduce.
	Seed uint64
	// Skipped is non-empty when DSWP does not apply (single SCC or a
	// one-stage heuristic partition).
	Skipped string
	// Aborted is true when Options.Ctx expired before the sweep finished;
	// the report covers only the runs that completed.
	Aborted bool
	// Runs counts executed differential comparisons.
	Runs int
	// Failures lists each diverging or failing run with enough context
	// (engine, capacity, fault seed, GOMAXPROCS) to replay it.
	Failures []string
}

// OK reports whether the program validated cleanly (skipped counts as OK).
func (r *Report) OK() bool { return len(r.Failures) == 0 }

func (r *Report) String() string {
	aborted := ""
	if r.Aborted {
		aborted = ", aborted by deadline"
	}
	switch {
	case r.Skipped != "":
		return fmt.Sprintf("%s: skipped (%s)", r.Name, r.Skipped)
	case r.OK():
		return fmt.Sprintf("%s: ok (%d runs, seed %d%s)", r.Name, r.Runs, r.Seed, aborted)
	}
	return fmt.Sprintf("%s: %d/%d runs FAILED (seed %d%s): %v", r.Name, len(r.Failures), r.Runs, r.Seed, aborted, r.Failures)
}

// MismatchError reports a differential-validation divergence: a run's
// final architectural state differs from the sequential baseline. It is a
// distinct type so callers (dswpsim's exit-code mapping, the chaos
// harness) can tell "wrong answer" apart from "typed execution failure".
type MismatchError struct {
	// Tag identifies the diverging run (engine, capacity, fault seed).
	Tag string
	// Word is the first diverging memory word, or -1 for a live-out
	// divergence.
	Word int64
	// Detail is the human-readable divergence description.
	Detail string
}

func (e *MismatchError) Error() string { return fmt.Sprintf("%s: %s", e.Tag, e.Detail) }

// isCancel reports whether err stems from context cancellation or deadline
// expiry (*runtime.CanceledError unwraps to the context sentinels).
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Compare asserts got matches the sequential baseline bit-for-bit:
// identical memory image and identical live-out registers. It returns nil
// on a match and a *MismatchError otherwise.
func Compare(tag string, base, got *interp.Result) error {
	if d := base.Mem.Diff(got.Mem); d != -1 {
		return &MismatchError{Tag: tag, Word: d,
			Detail: fmt.Sprintf("memory diverges at word %d (base=%d got=%d)", d, base.Mem.Get(d), got.Mem.Get(d))}
	}
	for r, v := range base.LiveOuts {
		if got.LiveOuts[r] != v {
			return &MismatchError{Tag: tag, Word: -1,
				Detail: fmt.Sprintf("live-out %s = %d, want %d", r, got.LiveOuts[r], v)}
		}
	}
	return nil
}

// Program validates one workload differentially. It never returns an
// error for divergence — that is recorded in the report — only the report.
func Program(p *workloads.Program, opts Options) *Report {
	opts = opts.withDefaults()
	rep := &Report{Name: p.Name, Seed: opts.Seed}
	opts.logf("validate %s: seed=%d caps=%v faultRuns=%d threads=%d",
		p.Name, opts.Seed, opts.Caps, opts.FaultRuns, opts.Threads)

	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// expired marks the report aborted once the external deadline fires;
	// callers use it to stop starting new legs without treating the runs
	// it cut short as divergences.
	expired := func() bool {
		if ctx.Err() != nil {
			rep.Aborted = true
			return true
		}
		return false
	}

	iopts := p.Options()
	iopts.Ctx = ctx
	iopts.MaxSteps = opts.MaxSteps
	base, err := interp.Run(p.F, iopts)
	if err != nil {
		if expired() && isCancel(err) {
			return rep
		}
		rep.Failures = append(rep.Failures, fmt.Sprintf("sequential baseline: %v", err))
		return rep
	}
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		rep.Failures = append(rep.Failures, fmt.Sprintf("profile: %v", err))
		return rep
	}
	// SkipProfitability: the harness validates correctness of the
	// transformation wherever it is *possible*, not just where the
	// heuristic predicts a win.
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
		NumThreads: opts.Threads, SkipProfitability: true,
	})
	if err != nil {
		if errors.Is(err, core.ErrSingleSCC) || errors.Is(err, core.ErrUnprofitable) {
			rep.Skipped = err.Error()
			opts.logf("validate %s: %s", p.Name, rep.Skipped)
			return rep
		}
		rep.Failures = append(rep.Failures, fmt.Sprintf("transform: %v", err))
		return rep
	}
	trPacked, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
		NumThreads: opts.Threads, SkipProfitability: true, PackFlows: true,
	})
	if err != nil {
		rep.Failures = append(rep.Failures, fmt.Sprintf("packed transform: %v", err))
		return rep
	}
	variants := []struct {
		tag string
		tr  *core.Transformed
	}{{"", tr}, {"packed ", trPacked}}

	check := func(tag string, res *interp.Result, err error) {
		if err != nil && ctx.Err() != nil && isCancel(err) {
			rep.Aborted = true // cut short by the external deadline, not a failure
			return
		}
		rep.Runs++
		if err != nil {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: %v", tag, err))
			return
		}
		if cerr := Compare(tag, base, res); cerr != nil {
			rep.Failures = append(rep.Failures, cerr.Error())
		}
	}

	// checkMetrics asserts the flow-conservation invariant on a clean run:
	// every queue's produce count equals its consume count (and no
	// instrumentation events were dropped).
	checkMetrics := func(tag string, m *obs.Metrics, err error) {
		if err != nil {
			return // the failed run is already reported by check
		}
		for _, v := range m.CheckConsistency() {
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: metrics: %s", tag, v))
		}
	}

	// (a) Deterministic interpreter, the cycle model's trace generator:
	// one unbounded run each of the plain and the flow-packed transform.
	for _, v := range variants {
		if expired() {
			return rep
		}
		res, err := interp.RunThreads(v.tr.Threads, iopts)
		check(fmt.Sprintf("interp %sunbounded", v.tag), res, err)
	}

	// (b) Concurrent goroutine runtime across the capacity sweep, on both
	// communication substrates: the queue kind (and packing) must never
	// change the final state, bit for bit.
	for _, v := range variants {
		for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
			for _, cap := range opts.Caps {
				if expired() {
					return rep
				}
				m := obs.NewMetrics(len(v.tr.Threads), v.tr.NumQueues)
				tag := fmt.Sprintf("runtime %s%s cap=%d", v.tag, kind, cap)
				res, err := rt.RunCtx(ctx, v.tr.Threads, rt.Options{
					QueueCap: cap, Queue: kind, Mem: p.Mem, Regs: p.Regs,
					MaxSteps: opts.MaxSteps, Timeout: opts.Timeout,
					Recorder: m,
				})
				check(tag, res, err)
				checkMetrics(tag, m, err)
			}
		}
	}

	// (c) Randomized fault/schedule runs: seed-derived fault plans,
	// random capacities, random queue kind and packing, random GOMAXPROCS.
	rng := workloads.NewRNG(opts.Seed | 1)
	for i := 0; i < opts.FaultRuns; i++ {
		if expired() {
			return rep
		}
		fseed := rng.Next()
		cap := opts.Caps[rng.Index(len(opts.Caps))]
		kind := queue.Kind(rng.Index(2))
		v := variants[rng.Index(len(variants))]
		plan := rt.RandomFaults(fseed, len(v.tr.Threads), v.tr.NumQueues)
		procs := 0
		if !opts.PinProcs {
			procs = 1 + rng.Index(stdruntime.NumCPU())
		}
		tag := fmt.Sprintf("runtime %s%s cap=%d faultseed=%d procs=%d", v.tag, kind, cap, fseed, procs)
		var old int
		if procs > 0 {
			old = stdruntime.GOMAXPROCS(procs)
		}
		res, err := rt.RunCtx(ctx, v.tr.Threads, rt.Options{
			QueueCap: cap, Queue: kind, Mem: p.Mem, Regs: p.Regs,
			MaxSteps: opts.MaxSteps, Timeout: opts.Timeout,
			Faults: plan,
		})
		if procs > 0 {
			stdruntime.GOMAXPROCS(old)
		}
		check(tag, res, err)
	}

	// (e) Parallel-stage replication (psdswp): when the planner finds a
	// replicable stage, replicate the plain and packed transforms at widths
	// 2 and 4 and hold the replicated pipelines to the same bit-identical
	// contract — one unbounded interpreter run, the runtime's capacity
	// sweep on both queue substrates with flow-conservation metrics, and a
	// supervised run that panics one replica
	// (the supervisor must recover via sequential resume to the exact
	// sequential state, proving replica failures are contained).
	for _, v := range variants {
		prep := psdswp.Analyze(v.tr)
		if !prep.Replicable() {
			continue
		}
		for _, width := range []int{2, 4} {
			if expired() {
				return rep
			}
			res, err := psdswp.Replicate(v.tr, prep.Stage, width)
			if err != nil {
				rep.Runs++
				rep.Failures = append(rep.Failures,
					fmt.Sprintf("replicate %sw=%d: %v", v.tag, width, err))
				continue
			}
			rtr := res.Tr
			ires, err := interp.RunThreads(rtr.Threads, iopts)
			check(fmt.Sprintf("interp replicated %sw=%d unbounded", v.tag, width), ires, err)
			for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
				for _, cap := range opts.Caps {
					if expired() {
						return rep
					}
					m := obs.NewMetrics(len(rtr.Threads), rtr.NumQueues)
					tag := fmt.Sprintf("runtime replicated %sw=%d %s cap=%d", v.tag, width, kind, cap)
					rres, err := rt.RunCtx(ctx, rtr.Threads, rt.Options{
						QueueCap: cap, Queue: kind, Mem: p.Mem, Regs: p.Regs,
						MaxSteps: opts.MaxSteps, Timeout: opts.Timeout,
						Recorder: m,
					})
					check(tag, rres, err)
					checkMetrics(tag, m, err)
				}
			}
			if expired() {
				return rep
			}
			rpipe := supervisor.Pipeline{
				Threads: rtr.Threads, Original: p.F, LoopHeader: p.LoopHeader,
				RegOwner: rtr.RegOwner, Mem: p.Mem, Regs: p.Regs,
			}
			tag := fmt.Sprintf("supervised replicated %sw=%d replica-panic", v.tag, width)
			sres, _, err := supervisor.Run(ctx, rpipe, supervisor.Policy{
				CheckpointEvery: 16, MaxSteps: opts.MaxSteps, AttemptTimeout: opts.Timeout,
				Faults: panicPlan(opts.Seed, res.ReplicaThreads()[width-1], 300),
			})
			check(tag, sres, err)
		}
	}

	pipe := supervisor.Pipeline{
		Threads: tr.Threads, Original: p.F, LoopHeader: p.LoopHeader,
		RegOwner: tr.RegOwner, Mem: p.Mem, Regs: p.Regs,
	}
	// (d) Supervised execution with induced failures: queue error faults
	// and stage panics must recover via sequential resume from the last
	// committed checkpoint — and every path must land on the
	// bit-identical sequential state. The supervisor's contract (typed
	// error or correct result, never a hang, never a wrong answer) is
	// asserted here with the same check as every other engine.
	supRuns := []struct {
		tag string
		pol supervisor.Policy
	}{
		{"supervised clean", supervisor.Policy{
			CheckpointEvery: 16, MaxSteps: opts.MaxSteps, AttemptTimeout: opts.Timeout}},
		{"supervised permanent-fault", supervisor.Policy{
			CheckpointEvery: 16, MaxSteps: opts.MaxSteps, AttemptTimeout: opts.Timeout,
			Faults: &rt.FaultPlan{Seed: opts.Seed, Queue: map[int]failpoint.Policy{
				0: {Action: failpoint.ActError, Every: 128}}}}},
		{"supervised stage-panic", supervisor.Policy{
			CheckpointEvery: 16, MaxSteps: opts.MaxSteps, AttemptTimeout: opts.Timeout,
			Faults: panicPlan(opts.Seed, len(tr.Threads)-1, 300)}},
		{"supervised ring clean", supervisor.Policy{
			Queue:           queue.KindRing,
			CheckpointEvery: 16, MaxSteps: opts.MaxSteps, AttemptTimeout: opts.Timeout}},
		{"supervised ring stage-panic", supervisor.Policy{
			Queue:           queue.KindRing,
			CheckpointEvery: 16, MaxSteps: opts.MaxSteps, AttemptTimeout: opts.Timeout,
			Faults: panicPlan(opts.Seed, len(tr.Threads)-1, 300)}},
	}
	for _, sr := range supRuns {
		if expired() {
			return rep
		}
		res, srep, err := supervisor.Run(ctx, pipe, sr.pol)
		check(sr.tag, res, err)
		if err == nil && srep.Resumed {
			opts.logf("validate %s: %s recovered via resume from iter %d (%d checkpoints)",
				p.Name, sr.tag, srep.ResumeIter, srep.Checkpoints)
		}
	}

	opts.logf("validate %s: %s", p.Name, rep)
	return rep
}

// panicPlan makes thread panic at its n-th retired instruction.
func panicPlan(seed uint64, thread int, n int64) *rt.FaultPlan {
	return &rt.FaultPlan{Seed: seed, Thread: map[int]failpoint.Policy{
		thread: {Action: failpoint.ActPanic, Nth: n}}}
}

// AllPrograms returns every built-in workload the harness validates: the
// Table 1 suite, the §5 case studies, and the pedagogy kernels.
func AllPrograms() []*workloads.Program {
	progs := []*workloads.Program{
		workloads.ListTraversal(500),
		workloads.ListOfLists(40, 5),
	}
	for _, wb := range append(append(workloads.Table1Suite(), workloads.CaseStudies()...), workloads.ReplicationSuite()...) {
		progs = append(progs, wb.Build())
	}
	return progs
}

// Suite validates every built-in workload and returns one report each.
func Suite(opts Options) []*Report {
	var reps []*Report
	for _, p := range AllPrograms() {
		reps = append(reps, Program(p, opts))
	}
	return reps
}
