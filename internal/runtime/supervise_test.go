package runtime

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/workloads"
)

// transformed applies DSWP to a workload and returns it with its baseline,
// for tests that need a real pipeline with RegOwner metadata.
func transformed(t *testing.T, p *workloads.Program) (*core.Transformed, *interp.Result) {
	t.Helper()
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{SkipProfitability: true})
	if err != nil {
		t.Fatal(err)
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	return tr, base
}

func TestRunCtxCancellation(t *testing.T) {
	p := workloads.ListTraversal(500)
	tr, _ := transformed(t, p)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run must bail out promptly
	_, err := RunCtx(ctx, tr.Threads, Options{QueueCap: 1, Mem: p.Mem, Regs: p.Regs})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CanceledError, got %T: %v", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CanceledError does not unwrap to context.Canceled: %v", err)
	}
}

func TestRunCtxDeadline(t *testing.T) {
	// A stalled pipeline under a context deadline must surface the
	// deadline, not hang until the watchdog timeout.
	p := workloads.ListTraversal(2000)
	tr, _ := transformed(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	plan := &FaultPlan{Thread: map[int]failpoint.Policy{
		0: {Action: failpoint.ActSleep, Every: 32, Sleep: 5 * time.Millisecond}}}
	start := time.Now()
	_, err := RunCtx(ctx, tr.Threads, Options{QueueCap: 1, Mem: p.Mem, Regs: p.Regs, Faults: plan})
	if err == nil {
		t.Fatal("deadlined run returned nil error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("cancellation took %v, not cooperative", el)
	}
}

func TestPanicCaptureStageFailure(t *testing.T) {
	p := workloads.ListTraversal(500)
	tr, _ := transformed(t, p)
	victim := len(tr.Threads) - 1
	plan := &FaultPlan{Seed: 7, Thread: map[int]failpoint.Policy{
		victim: {Action: failpoint.ActPanic, Nth: 100}}}
	_, err := Run(tr.Threads, Options{QueueCap: 2, Mem: p.Mem, Regs: p.Regs, Faults: plan})
	var sf *StageFailure
	if !errors.As(err, &sf) {
		t.Fatalf("want *StageFailure, got %T: %v", err, err)
	}
	if sf.Thread != victim {
		t.Fatalf("StageFailure.Thread = %d, want %d", sf.Thread, victim)
	}
	if !strings.Contains(sf.Value, "injected fault") {
		t.Fatalf("captured panic value %q lacks the injected message", sf.Value)
	}
	if sf.Stack == "" {
		t.Fatal("StageFailure.Stack empty")
	}
	// The failure embeds a full pipeline snapshot for postmortems.
	if len(sf.Threads) != len(tr.Threads) {
		t.Fatalf("snapshot has %d threads, want %d", len(sf.Threads), len(tr.Threads))
	}
	if !strings.Contains(sf.Error(), "stage panic") || !strings.Contains(sf.Error(), "iter=") {
		t.Fatalf("error text %q lacks the pipeline snapshot", sf.Error())
	}
}

func TestPermanentFaultFails(t *testing.T) {
	p := workloads.ListTraversal(300)
	tr, _ := transformed(t, p)
	plan := &FaultPlan{Seed: 3, Queue: map[int]failpoint.Policy{
		0: {Action: failpoint.ActError, Every: 64},
	}}
	_, err := Run(tr.Threads, Options{QueueCap: 2, Mem: p.Mem, Regs: p.Regs, Faults: plan})
	var qf *QueueFaultError
	if !errors.As(err, &qf) {
		t.Fatalf("want *QueueFaultError, got %T: %v", err, err)
	}
	if qf.Queue != 0 {
		t.Fatalf("QueueFaultError = %+v, want queue 0", qf)
	}
}

// TestStallRespectsCancellation: an injected thread sleep far longer than
// the run's deadline ends when the deadline does.
func TestStallRespectsCancellation(t *testing.T) {
	p := workloads.ListTraversal(500)
	tr, _ := transformed(t, p)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	plan := &FaultPlan{Thread: map[int]failpoint.Policy{
		0: {Action: failpoint.ActSleep, Every: 64, Sleep: time.Hour}}}
	start := time.Now()
	_, err := RunCtx(ctx, tr.Threads, Options{QueueCap: 2, Mem: p.Mem, Regs: p.Regs, Faults: plan})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("an hour-long injected sleep held the run for %v past its deadline", el)
	}
}

func TestCheckpointCommits(t *testing.T) {
	p := workloads.ListTraversal(500)
	tr, base := transformed(t, p)
	var commits []Checkpoint
	m := obs.NewMetrics(len(tr.Threads), tr.NumQueues)
	res, err := Run(tr.Threads, Options{
		QueueCap: 4, Mem: p.Mem, Regs: p.Regs, Recorder: m,
		Checkpoint: &CheckpointSpec{
			Every: 16, Header: p.LoopHeader, RegOwner: tr.RegOwner,
			OnCommit: func(cp Checkpoint) {
				// Mem is the run's retained image, overwritten by the
				// next commit: keep a copy.
				cp.Mem = cp.Mem.Clone()
				commits = append(commits, cp)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := base.Mem.Diff(res.Mem); d != -1 {
		t.Fatalf("checkpointed run diverges at word %d", d)
	}
	if len(commits) == 0 {
		t.Fatal("no checkpoints committed over 500 iterations with Every=16")
	}
	if got := m.Checkpoints(); got != int64(len(commits)) {
		t.Fatalf("metrics counted %d checkpoints, OnCommit saw %d", got, len(commits))
	}
	for i, cp := range commits {
		if want := int64(16 * (i + 1)); cp.Iter != want {
			t.Fatalf("commit %d at iteration %d, want %d", i, cp.Iter, want)
		}
		if cp.Mem == nil || len(cp.Regs) != len(tr.RegOwner) {
			t.Fatalf("commit %d malformed: mem=%v regs=%d want %d",
				i, cp.Mem != nil, len(cp.Regs), len(tr.RegOwner))
		}
	}
	// Each checkpoint must be resumable: sequential execution of the
	// original from the checkpoint state must land on the baseline state.
	for _, cp := range []Checkpoint{commits[0], commits[len(commits)-1]} {
		rres, err := interp.Run(p.F, interp.Options{
			StartBlock: p.LoopHeader, RegFile: cp.Regs, Mem: cp.Mem,
		})
		if err != nil {
			t.Fatalf("resume from iter %d: %v", cp.Iter, err)
		}
		if d := base.Mem.Diff(rres.Mem); d != -1 {
			t.Fatalf("resume from iter %d diverges at word %d", cp.Iter, d)
		}
		for r, v := range base.LiveOuts {
			if rres.LiveOuts[r] != v {
				t.Fatalf("resume from iter %d: live-out %s = %d, want %d", cp.Iter, r, rres.LiveOuts[r], v)
			}
		}
	}
}

func TestCheckpointDisabledOnMissingHeader(t *testing.T) {
	p := workloads.ListTraversal(100)
	tr, _ := transformed(t, p)
	calls := 0
	_, err := Run(tr.Threads, Options{
		QueueCap: 4, Mem: p.Mem, Regs: p.Regs,
		Checkpoint: &CheckpointSpec{
			Every: 4, Header: "no-such-block", RegOwner: tr.RegOwner,
			OnCommit: func(Checkpoint) { calls++ },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("checkpointing ran %d commits despite a missing header anchor", calls)
	}
}

func TestBlockInfoReportsIteration(t *testing.T) {
	// A deadlocked pipeline's report should say how far each thread got.
	p := workloads.ListTraversal(200)
	tr, _ := transformed(t, p)
	plan := &FaultPlan{Seed: 11, Queue: map[int]failpoint.Policy{
		0: {Action: failpoint.ActError, Every: 100},
	}}
	_, err := Run(tr.Threads, Options{QueueCap: 1, Mem: p.Mem, Regs: p.Regs, Faults: plan})
	var qf *QueueFaultError
	if !errors.As(err, &qf) {
		t.Fatalf("want *QueueFaultError, got %v", err)
	}
	if !strings.Contains(qf.Error(), "permanent") {
		t.Fatalf("error text %q lacks fault class", qf.Error())
	}
}
