// External test package: validate imports supervisor, so the supervisor's
// own tests must live outside the package to use the validation helpers.
package supervisor_test

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/profile"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/testutil"
	"dswp/internal/validate"
	"dswp/internal/workloads"
)

// panicPlan makes thread panic at its n-th retired instruction.
func panicPlan(thread int, n int64) *rt.FaultPlan {
	return &rt.FaultPlan{Seed: 5, Thread: map[int]failpoint.Policy{
		thread: {Action: failpoint.ActPanic, Nth: n}}}
}

// prepare transforms a workload and returns the pipeline plus baseline, or
// (zero, nil) when DSWP does not apply (single-SCC workloads).
func prepare(t *testing.T, p *workloads.Program, threads int) (supervisor.Pipeline, *interp.Result) {
	t.Helper()
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
		NumThreads: threads, SkipProfitability: true,
	})
	if err != nil {
		if errors.Is(err, core.ErrSingleSCC) || errors.Is(err, core.ErrUnprofitable) {
			return supervisor.Pipeline{}, nil
		}
		t.Fatal(err)
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	return supervisor.Pipeline{
		Threads: tr.Threads, Original: p.F, LoopHeader: p.LoopHeader,
		RegOwner: tr.RegOwner, Mem: p.Mem, Regs: p.Regs,
	}, base
}

// TestCheckpointResumeEquivalenceAllWorkloads is the tentpole acceptance
// table: for every built-in workload and every induced failure mode, the
// supervised run must land on the bit-identical sequential state.
func TestCheckpointResumeEquivalenceAllWorkloads(t *testing.T) {
	testutil.VerifyNone(t)
	modes := []struct {
		name     string
		wantRsm  bool // failure mode forces a sequential resume
		makePlan func(threads, queues int) *rt.FaultPlan
	}{
		{"clean", false, func(_, _ int) *rt.FaultPlan { return nil }},
		// A transient fault is one the operation outlives: it is delayed,
		// then goes through, so the attempt absorbs it in place with no
		// resume. As a policy that is a sleep on every 48th value.
		{"transient-retry", false, func(_, q int) *rt.FaultPlan {
			return &rt.FaultPlan{Seed: 9, Queue: map[int]failpoint.Policy{
				0: {Action: failpoint.ActSleep, Every: 48, Sleep: 15 * time.Microsecond}}}
		}},
		{"permanent-resume", true, func(_, q int) *rt.FaultPlan {
			return &rt.FaultPlan{Seed: 9, Queue: map[int]failpoint.Policy{
				0: {Action: failpoint.ActError, Every: 96}}}
		}},
		{"panic-resume", true, func(th, _ int) *rt.FaultPlan {
			return &rt.FaultPlan{Seed: 9, Thread: map[int]failpoint.Policy{
				th - 1: {Action: failpoint.ActPanic, Nth: 200}}}
		}},
	}
	for _, p := range validate.AllPrograms() {
		pipe, base := prepare(t, p, 2)
		if base == nil {
			continue
		}
		for _, mode := range modes {
			for _, every := range []int64{4, 32} {
				t.Run(p.Name+"/"+mode.name, func(t *testing.T) {
					pol := supervisor.Policy{
						QueueCap:        2,
						CheckpointEvery: every,
						Faults:          mode.makePlan(len(pipe.Threads), 1),
					}
					res, rep, err := supervisor.Run(context.Background(), pipe, pol)
					if err != nil {
						t.Fatalf("every=%d: supervised run failed: %v (attempt failure: %v)",
							every, err, rep.Failure)
					}
					if cerr := validate.Compare("supervised", base, res); cerr != nil {
						t.Fatalf("every=%d: %v (resumed=%v from iter %d)",
							every, cerr, rep.Resumed, rep.ResumeIter)
					}
					// The fault may simply not fire on short workloads;
					// when it did, the report must reflect the recovery.
					if rep.Failure != nil && mode.wantRsm && !rep.Resumed {
						t.Fatalf("every=%d: failure %v but no resume", every, rep.Failure)
					}
				})
			}
		}
	}
}

// TestResumeUsesCheckpoint asserts the resume actually starts from a
// committed checkpoint (not from scratch) when one is available.
func TestResumeUsesCheckpoint(t *testing.T) {
	p := workloads.ListTraversal(500)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	pol := supervisor.Policy{
		QueueCap:        2,
		CheckpointEvery: 8,
		Faults:          panicPlan(len(pipe.Threads)-1, 2000),
	}
	res, rep, err := supervisor.Run(context.Background(), pipe, pol)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failure == nil {
		t.Fatal("injected panic did not fire; raise the step threshold")
	}
	if !rep.Resumed || rep.ResumeIter <= 0 {
		t.Fatalf("resume did not use a checkpoint: resumed=%v iter=%d checkpoints=%d",
			rep.Resumed, rep.ResumeIter, rep.Checkpoints)
	}
	if rep.ResumeIter%8 != 0 {
		t.Fatalf("resume iteration %d is not a checkpoint boundary", rep.ResumeIter)
	}
	if cerr := validate.Compare("resume", base, res); cerr != nil {
		t.Fatal(cerr)
	}
}

// TestResumeFromScratchWithoutCheckpoints: a failure before the first
// checkpoint (or with checkpointing disabled) resumes from the start.
func TestResumeFromScratchWithoutCheckpoints(t *testing.T) {
	p := workloads.ListTraversal(200)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	pipe.RegOwner = nil // disable checkpointing entirely
	pol := supervisor.Policy{
		QueueCap: 2,
		Faults:   panicPlan(0, 100),
	}
	res, rep, err := supervisor.Run(context.Background(), pipe, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Resumed || rep.ResumeIter != -1 || rep.Checkpoints != 0 {
		t.Fatalf("want from-scratch resume, got resumed=%v iter=%d checkpoints=%d",
			rep.Resumed, rep.ResumeIter, rep.Checkpoints)
	}
	if cerr := validate.Compare("scratch-resume", base, res); cerr != nil {
		t.Fatal(cerr)
	}
}

// TestResumeAfterDeadlockWithoutRegOwner: a pipeline with no register
// ownership map (the facade's RunConcurrent) never checkpoints, so a
// watchdog-detected deadlock resumes the original loop from scratch, and
// the resume records its trace when the policy asks for one.
func TestResumeAfterDeadlockWithoutRegOwner(t *testing.T) {
	orig := ir.MustParse(`func orig {
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
`)
	cyclicA := ir.MustParse("func a {\nentry:\n    consume r1 = [0]\n    produce [1] = r1\n    ret\n}\n")
	cyclicB := ir.MustParse("func b {\nentry:\n    consume r1 = [1]\n    produce [0] = r1\n    ret\n}\n")
	res, rep, err := supervisor.Run(context.Background(), supervisor.Pipeline{
		Threads: []*ir.Function{cyclicA, cyclicB}, Original: orig,
	}, supervisor.Policy{RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	var derr *rt.DeadlockError
	if !errors.As(rep.Failure, &derr) {
		t.Fatalf("failure = %v, want *DeadlockError", rep.Failure)
	}
	if !rep.Resumed || rep.ResumeIter != -1 {
		t.Fatalf("resumed=%v iter=%d, want a from-scratch resume", rep.Resumed, rep.ResumeIter)
	}
	if got := res.LiveOuts[ir.Reg(7)]; got != 55 {
		t.Fatalf("resumed live-out = %d, want 55", got)
	}
	if len(res.Threads) != 1 || len(res.Threads[0].Trace) == 0 {
		t.Fatalf("resume recorded no trace under RecordTrace")
	}
}

// TestStepLimitResumesWithFreshBudget: a pipelined attempt that exhausts
// its step budget resumes like any other failure, and the resume gets
// the whole budget again. The budget is below the sequential run's
// length, so only a resume from a mid-loop commit fits in it.
func TestStepLimitResumesWithFreshBudget(t *testing.T) {
	p := workloads.ListTraversal(2000)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	budget := base.Threads[0].Steps * 4 / 5
	res, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
		CheckpointEvery: 8, MaxSteps: budget})
	if err != nil {
		t.Fatal(err)
	}
	var sl *rt.StepLimitError
	if !errors.As(rep.Failure, &sl) {
		t.Fatalf("failure = %v, want *StepLimitError", rep.Failure)
	}
	if !rep.Resumed || rep.ResumeIter <= 0 {
		t.Fatalf("resumed=%v iter=%d, want a resume from a commit", rep.Resumed, rep.ResumeIter)
	}
	if cerr := validate.Compare("step-limit-resume", base, res); cerr != nil {
		t.Fatal(cerr)
	}
}

func TestDisableResumeSurfacesFailure(t *testing.T) {
	p := workloads.ListTraversal(200)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	pol := supervisor.Policy{
		QueueCap:      2,
		DisableResume: true,
		Faults:        panicPlan(0, 100),
	}
	_, rep, err := supervisor.Run(context.Background(), pipe, pol)
	var sf *rt.StageFailure
	if !errors.As(err, &sf) {
		t.Fatalf("want *StageFailure surfaced, got %v", err)
	}
	if rep.Resumed {
		t.Fatal("resumed despite DisableResume")
	}
}

func TestDeadlinePropagates(t *testing.T) {
	p := workloads.ListTraversal(2000)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	pol := supervisor.Policy{
		QueueCap: 1,
		Deadline: 10 * time.Millisecond,
		Faults: &rt.FaultPlan{Thread: map[int]failpoint.Policy{
			0: {Action: failpoint.ActSleep, Every: 16, Sleep: 2 * time.Millisecond}}},
	}
	start := time.Now()
	_, rep, err := supervisor.Run(context.Background(), pipe, pol)
	if err == nil {
		t.Fatal("deadlined run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if !rep.Canceled {
		t.Fatal("report does not mark the run canceled")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline took %v to propagate", el)
	}
}

func TestCancellationNoResume(t *testing.T) {
	testutil.VerifyNone(t)
	p := workloads.ListTraversal(2000)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, rep, err := supervisor.Run(ctx, pipe, supervisor.Policy{QueueCap: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if rep.Resumed {
		t.Fatal("a canceled run must not resume")
	}
	if !rep.Canceled {
		t.Fatal("report does not mark the run canceled")
	}
}

// TestDurableCommitsAndStoreSeededResume: checkpoints flow into the
// configured store, and a fresh Run with no in-memory latch (attempt dies
// before its first barrier) seeds its sequential resume from the store —
// the cross-attempt recovery path the serving engine builds on.
func TestDurableCommitsAndStoreSeededResume(t *testing.T) {
	p := workloads.ListTraversal(500)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	store := ckptstore.NewMem()
	defer store.Close()

	// First run: panic late so checkpoints commit durably, resume in-run.
	pol := supervisor.Policy{
		QueueCap:        2,
		CheckpointEvery: 8,
		Store:           store,
		StoreKey:        "list.r1",
		StoreMeta:       []byte("req"),
		Faults:          panicPlan(len(pipe.Threads)-1, 2000),
	}
	res, rep, err := supervisor.Run(context.Background(), pipe, pol)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := validate.Compare("durable", base, res); cerr != nil {
		t.Fatal(cerr)
	}
	if rep.DurableCommits == 0 || rep.DurableCommits != rep.Checkpoints {
		t.Fatalf("durable commits = %d, checkpoints = %d", rep.DurableCommits, rep.Checkpoints)
	}
	if rep.StoreErrors != 0 {
		t.Fatalf("store errors = %d", rep.StoreErrors)
	}
	e, err := store.Get("list.r1")
	if err != nil {
		t.Fatalf("store entry missing after run: %v", err)
	}
	if string(e.Meta) != "req" || e.Iter <= 0 {
		t.Fatalf("stored entry = key %q meta %q iter %d", e.Key, e.Meta, e.Iter)
	}

	// Second run under the same key: kill thread 0 immediately, so no
	// checkpoint commits in-memory; the resume must come from the store.
	pipe2, _ := prepare(t, p, 2)
	pol2 := supervisor.Policy{
		QueueCap:        2,
		CheckpointEvery: 8,
		Store:           store,
		StoreKey:        "list.r1",
		Faults:          panicPlan(0, 1),
	}
	res2, rep2, err := supervisor.Run(context.Background(), pipe2, pol2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Resumed || rep2.ResumeIter != e.Iter {
		t.Fatalf("want store-seeded resume from iter %d, got resumed=%v iter=%d",
			e.Iter, rep2.Resumed, rep2.ResumeIter)
	}
	if cerr := validate.Compare("store-seeded", base, res2); cerr != nil {
		t.Fatal(cerr)
	}

	// Third run with the entry corrupted: resume falls back to scratch,
	// still lands on the right answer, never errors on the bad entry.
	store.Corrupt("list.r1")
	pipe3, _ := prepare(t, p, 2)
	res3, rep3, err := supervisor.Run(context.Background(), pipe3, pol2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Resumed || rep3.ResumeIter != -1 {
		t.Fatalf("corrupt entry: want from-scratch resume, got iter=%d", rep3.ResumeIter)
	}
	if cerr := validate.Compare("corrupt-fallback", base, res3); cerr != nil {
		t.Fatal(cerr)
	}
}

// numQueues is one past the highest queue any of fns names.
func numQueues(t *testing.T, fns []*ir.Function) int {
	t.Helper()
	n := 0
	for _, fn := range fns {
		c, err := interp.Lower(fn)
		if err != nil {
			t.Fatal(err)
		}
		n = max(n, c.NumQueues)
	}
	return n
}

// TestDurableCommitsReachTraceAndMetrics: the supervisor's run-level
// KDurableCommit events (Thread -1) are kept by obs.Trace and reach its
// Chrome export, and obs.Metrics ignores them instead of counting them
// as dropped, so a clean durable run passes its consistency check.
func TestDurableCommitsReachTraceAndMetrics(t *testing.T) {
	p := workloads.ListTraversal(2000)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	store := ckptstore.NewMem()
	defer store.Close()
	m := obs.NewMetrics(len(pipe.Threads), numQueues(t, pipe.Threads))
	tr := obs.NewTrace(len(pipe.Threads), 0)
	res, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
		Store: store, StoreKey: "list.r1", Recorder: obs.Multi(m, tr)})
	if err != nil || rep.Failure != nil {
		t.Fatalf("run: %v (attempt %v)", err, rep.Failure)
	}
	if cerr := validate.Compare("durable", base, res); cerr != nil {
		t.Fatal(cerr)
	}
	if rep.DurableCommits == 0 {
		t.Fatal("no durable commits")
	}
	if bad := m.CheckConsistency(); len(bad) != 0 {
		t.Fatalf("metrics: %v", bad)
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("trace dropped %d events", d)
	}
	var commits int64
	for _, e := range tr.Events() {
		if e.Kind == obs.KDurableCommit {
			commits++
		}
	}
	if commits != rep.DurableCommits {
		t.Fatalf("trace holds %d durable commits, report says %d", commits, rep.DurableCommits)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if n := int64(strings.Count(buf.String(), `"name":"durable-commit"`)); n != commits {
		t.Fatalf("Chrome export has %d durable-commit events, want %d", n, commits)
	}
}

// TestResumeEmitsOnlyItsMarker: a sequential resume adds exactly one
// event to the run's recorder, the supervisor's KResume, and it is the
// run's last event. The resume opens no stage of its own and stamps
// nothing in a second clock.
func TestResumeEmitsOnlyItsMarker(t *testing.T) {
	p := workloads.ListTraversal(2000)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	tr := obs.NewTrace(len(pipe.Threads), 0)
	res, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
		Faults: panicPlan(len(pipe.Threads)-1, 400), Recorder: tr})
	if err != nil || !rep.Resumed {
		t.Fatalf("run: err %v, resumed %v", err, rep.Resumed)
	}
	if cerr := validate.Compare("resumed", base, res); cerr != nil {
		t.Fatal(cerr)
	}
	var starts, resumes int
	var resumeAt, last int64
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KStageStart:
			starts++
		case obs.KResume:
			resumes++
			resumeAt = e.When
		}
		last = max(last, e.When)
	}
	if starts != len(pipe.Threads) || resumes != 1 {
		t.Fatalf("%d stage starts and %d resumes, want %d and 1", starts, resumes, len(pipe.Threads))
	}
	if last != resumeAt {
		t.Fatalf("an event at %d ns follows the resume marker at %d ns", last, resumeAt)
	}
}
