package engine

import (
	"context"
	"runtime"
	"testing"
)

// TestReplicatedServing pins the serving contract for PS-DSWP requests:
// a Replicate request on a replicable workload compiles a replicated
// pipeline exactly once, serves digests bit-identical to the sequential
// reference, reports the replicated stage and width on the response, and
// counts both the compile and the runs in the engine metrics. A
// sequential run of the same pipeline reports neither.
func TestReplicatedServing(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(Options{Workers: 2})
	defer func() {
		if err := e.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		settleGoroutines(t, base)
	}()

	seq, err := e.Run(context.Background(), Request{Workload: "29.compress", Mode: "sequential"})
	if err != nil {
		t.Fatal(err)
	}
	flatRun, err := e.Run(context.Background(), Request{Workload: "29.compress"})
	if err != nil {
		t.Fatal(err)
	}
	baseThreads := flatRun.Threads

	var width int
	for i := 0; i < 3; i++ {
		resp, err := e.Run(context.Background(), Request{Workload: "29.compress", Replicate: true})
		if err != nil {
			t.Fatalf("replicated run %d: %v", i, err)
		}
		if resp.Digest != seq.Digest {
			t.Fatalf("replicated digest %s, want sequential %s", resp.Digest, seq.Digest)
		}
		if resp.ReplicatedStage <= 0 || resp.ReplicaWidth < 2 {
			t.Fatalf("run %d: stage=%d width=%d, want a replicated pipeline",
				i, resp.ReplicatedStage, resp.ReplicaWidth)
		}
		if resp.Threads != baseThreads+resp.ReplicaWidth-1 {
			t.Fatalf("threads = %d with width %d over a %d-thread base, want %d",
				resp.Threads, resp.ReplicaWidth, baseThreads,
				baseThreads+resp.ReplicaWidth-1)
		}
		width = resp.ReplicaWidth
	}

	// An explicit width overrides the planner's choice and is a distinct
	// cache entry.
	resp, err := e.Run(context.Background(), Request{
		Workload: "29.compress", Replicate: true, ReplicaWidth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ReplicaWidth != 4 || resp.Digest != seq.Digest {
		t.Fatalf("width-4 run: width=%d digest=%s, want 4 and %s",
			resp.ReplicaWidth, resp.Digest, seq.Digest)
	}

	// A sequential run of a replicated pipeline reports what ran: no
	// pipeline and no replication, and it is not a replica run, while
	// threads still describe the compiled pipeline.
	seqRep, err := e.Run(context.Background(), Request{
		Workload: "29.compress", Replicate: true, Mode: "sequential",
	})
	if err != nil {
		t.Fatal(err)
	}
	if seqRep.Pipelined || seqRep.ReplicatedStage != 0 || seqRep.ReplicaWidth != 0 ||
		seqRep.Threads != baseThreads+width-1 || seqRep.Digest != seq.Digest {
		t.Fatalf("sequential run of a replicated pipeline: pipelined=%t stage=%d width=%d threads=%d digest=%s",
			seqRep.Pipelined, seqRep.ReplicatedStage, seqRep.ReplicaWidth, seqRep.Threads, seqRep.Digest)
	}

	// A non-replicable workload with Replicate set is served unreplicated
	// rather than rejected.
	flat, err := e.Run(context.Background(), Request{Workload: "adpcmdec", Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if flat.ReplicaWidth != 0 || flat.ReplicatedStage != 0 {
		t.Fatalf("adpcmdec reported replication (%d/%d); its stages carry recurrences",
			flat.ReplicatedStage, flat.ReplicaWidth)
	}

	snap := e.Metrics().Snapshot()
	if snap.ReplicatedCompiles != 2 { // planned width + explicit width 4
		t.Errorf("replicated_compiles = %d, want 2", snap.ReplicatedCompiles)
	}
	if snap.ReplicaRuns != 4 {
		t.Errorf("replica_runs = %d, want 4", snap.ReplicaRuns)
	}
	if width < 2 {
		t.Errorf("planner width = %d, want >= 2", width)
	}
}

// TestReplicatedInjectPanic pins replica failure isolation end to end: a
// panic landing on one replica must surface as a typed failure that the
// supervisor's resume turns into a correct result, never a wrong answer.
func TestReplicatedInjectPanic(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(Options{Workers: 1})
	defer func() {
		if err := e.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		settleGoroutines(t, base)
	}()

	seq, err := e.Run(context.Background(), Request{Workload: "29.compress", Mode: "sequential"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Run(context.Background(), Request{
		Workload: "29.compress", Replicate: true, InjectPanic: 100,
	})
	if err != nil {
		t.Fatalf("the resume did not recover a replica panic: %v", err)
	}
	if !resp.Resumed {
		t.Fatal("the replica panic did not fail the attempt")
	}
	if resp.Digest != seq.Digest {
		t.Fatalf("replica-panic run digest %s, want %s", resp.Digest, seq.Digest)
	}
}
