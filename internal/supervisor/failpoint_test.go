package supervisor_test

import (
	"context"
	"errors"
	"testing"

	"dswp/internal/failpoint"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/workloads"
)

// TestFailpointResumeStart arms supervisor/resume/start and forces a
// sequential resume with a permanent queue fault: the resume must fail
// with the injected error (typed, traceable) and the report must still
// show the resume was attempted — the supervisor degraded loudly, it did
// not hang or return a wrong result.
func TestFailpointResumeStart(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	pipe, base := prepare(t, workloads.ListTraversal(256), 2)
	if base == nil {
		t.Skip("workload not pipelinable")
	}
	if err := failpoint.Enable("supervisor/resume/start", "error(x):once"); err != nil {
		t.Fatal(err)
	}
	_, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
		CheckpointEvery: 16,
		Faults: &rt.FaultPlan{Seed: 9, Queue: map[int]failpoint.Policy{
			0: {Action: failpoint.ActError, Every: 96}}},
	})
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("armed resume: got %v", err)
	}
	if !rep.Resumed {
		t.Fatal("report does not show the resume attempt")
	}
	// The one-shot burned; the same pipeline now recovers end to end.
	pipe2, _ := prepare(t, workloads.ListTraversal(256), 2)
	res, rep2, err := supervisor.Run(context.Background(), pipe2, supervisor.Policy{
		CheckpointEvery: 16,
		Faults: &rt.FaultPlan{Seed: 9, Queue: map[int]failpoint.Policy{
			0: {Action: failpoint.ActError, Every: 96}}},
	})
	if err != nil {
		t.Fatalf("resume after one-shot: %v", err)
	}
	if !rep2.Resumed || res == nil {
		t.Fatal("second run should have resumed successfully")
	}
}
