package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/failpoint"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
)

// TestRetryResumesFromCheckpoint pins the engine's recovery path: an
// injected stage panic kills the pipelined attempt, the supervisor resumes
// the original loop sequentially from its newest commit instead of
// recomputing from iteration 0, and the answer is bit-identical to the
// sequential reference.
func TestRetryResumesFromCheckpoint(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4, CheckpointEvery: 4})
	defer shutdown(t, e)
	req := Request{Workload: "list-traversal", N: 1024, InjectPanic: 400}
	want := seqDigest(t, req)

	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed request failed: %v", err)
	}
	if resp.Digest != want {
		t.Fatalf("digest %s, want %s", resp.Digest, want)
	}
	if !resp.Resumed {
		t.Fatal("the failed attempt did not resume")
	}
	if resp.ResumeIter <= 0 {
		t.Fatalf("resume started at iteration %d; a panic at instruction 400 "+
			"with CheckpointEvery=4 must leave commits behind", resp.ResumeIter)
	}
	if resp.DurableCheckpoints == 0 {
		t.Fatal("no durable checkpoint commits reported")
	}

	s := e.Metrics().Snapshot()
	if s.Resumes != 1 || s.DurableCommits == 0 {
		t.Fatalf("counters: resumes=%d durable_commits=%d, want 1 and > 0",
			s.Resumes, s.DurableCommits)
	}
	// A terminal outcome deletes the request's store entry; only a crash
	// leaves entries for Recover to find.
	keys, err := e.store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("store still holds %v after a terminal outcome", keys)
	}
}

// TestResumeSurvivesFailedDurableCommits: with every durable write failing,
// the store holds nothing, yet the failed attempt still resumes from the
// supervisor's in-memory latch — a mid-loop iteration, not from scratch.
func TestResumeSurvivesFailedDurableCommits(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	if err := failpoint.Enable("supervisor/ckpt/commit", "error(EIO):every(1)"); err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 1, QueueDepth: 4, CheckpointEvery: 4})
	defer shutdown(t, e)
	req := Request{Workload: "list-traversal", N: 1024, InjectPanic: 400}
	want := seqDigest(t, req)

	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed request failed: %v", err)
	}
	if !resp.Resumed || resp.ResumeIter <= 0 || resp.Digest != want {
		t.Fatalf("resumed=%v iter=%d digest=%s, want a resume from a commit with digest %s",
			resp.Resumed, resp.ResumeIter, resp.Digest, want)
	}
	if resp.DurableCheckpoints != 0 || resp.Checkpoints == 0 {
		t.Fatalf("checkpoints=%d durable=%d, want commits that never reached the store",
			resp.Checkpoints, resp.DurableCheckpoints)
	}
	if s := e.Metrics().Snapshot(); s.StoreErrors == 0 {
		t.Fatal("failed durable commits were not counted")
	}
}

// TestClassifyTaxonomy pins the full error-class table the HTTP layer and
// dswpload's per-class counters share.
func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err    error
		class  string
		status int
	}{
		{ErrOverloaded, "shed", http.StatusTooManyRequests},
		{ErrDraining, "draining", http.StatusServiceUnavailable},
		{context.DeadlineExceeded, "deadline", http.StatusGatewayTimeout},
		{context.Canceled, "deadline", http.StatusGatewayTimeout},
		{&rt.DeadlockError{}, "deadlock", http.StatusLoopDetected},
		{&rt.TimeoutError{}, "timeout", http.StatusGatewayTimeout},
		{&rt.StageFailure{}, "stage-panic", http.StatusInternalServerError},
		{&rt.QueueFaultError{}, "queue-fault", http.StatusInternalServerError},
		{&rt.StepLimitError{}, "step-limit", http.StatusInternalServerError},
		{&UnknownWorkloadError{Name: "x"}, "bad-request", http.StatusBadRequest},
		{&UnknownModeError{Name: "x"}, "bad-request", http.StatusBadRequest},
		{errors.New("mystery"), "internal", http.StatusInternalServerError},
	}
	for _, c := range cases {
		class, status := classify(c.err)
		if class != c.class || status != c.status {
			t.Errorf("classify(%v) = %s/%d, want %s/%d", c.err, class, status, c.class, c.status)
		}
	}
}

// TestHTTPStagePanicClass drives an injected panic through the HTTP
// surface in concurrent mode, which has no recovery, and requires the
// typed 500 body; the same request in the default supervised mode must
// instead succeed with a resume.
func TestHTTPStagePanicClass(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4, CheckpointEvery: 4, BreakerThreshold: -1})
	defer shutdown(t, e)
	srv := httptest.NewServer(NewMux(e))
	defer srv.Close()

	resp, body := postRun(t, srv, `{"workload":"list-traversal","n":1024,"inject_panic":50,"mode":"concurrent"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("inject_panic in concurrent mode: %d: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Class != "stage-panic" {
		t.Fatalf("error class %q, want stage-panic: %s", eb.Class, body)
	}

	resp2, body2 := postRun(t, srv, `{"workload":"list-traversal","n":1024,"inject_panic":400}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("inject_panic in supervised mode: %d: %s", resp2.StatusCode, body2)
	}
	var rr Response
	if err := json.Unmarshal(body2, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Resumed || rr.Digest == "" {
		t.Fatalf("expected a resumed 200, got %+v", rr)
	}
}

// TestBreakerDegradesToSequential pins the circuit-breaker state machine:
// K consecutive pipelined failures flip the workload to sequential
// serving (correct results, Degraded set), a failed half-open probe
// re-opens for another cooldown, and a successful probe closes it. Every
// failed attempt resumes, so each request still lands the digest: a
// resume that saves the request does not absolve the pipeline.
func TestBreakerDegradesToSequential(t *testing.T) {
	// A huge cooldown pins the clock, which the test advances by swapping
	// the breaker's injected now().
	e := New(Options{Workers: 1, QueueDepth: 4,
		BreakerThreshold: 2, BreakerCooldown: time.Hour})
	defer shutdown(t, e)
	clean := Request{Workload: "list-traversal", N: 512}
	panicky := Request{Workload: "list-traversal", N: 512, InjectPanic: 50}
	want := seqDigest(t, clean)

	setClock := func(at time.Time) {
		e.breaker.mu.Lock()
		e.breaker.now = func() time.Time { return at }
		e.breaker.mu.Unlock()
	}
	t0 := time.Now()
	setClock(t0)
	resumed := func(what string, req Request) {
		t.Helper()
		resp, err := e.Run(context.Background(), req)
		if err != nil || !resp.Resumed || resp.Degraded || resp.Digest != want {
			t.Fatalf("%s: resp=%+v err=%v, want a pipelined attempt that resumed to %s",
				what, resp, err, want)
		}
	}

	// Two consecutive resumed failures trip the breaker.
	resumed("failure 1", panicky)
	resumed("failure 2", panicky)
	if bi := e.breaker.info(clean.Workload); bi == nil || bi.State != "open" || bi.Trips != 1 {
		t.Fatalf("breaker after 2 failures: %+v, want open with 1 trip", bi)
	}

	// Open breaker: correct sequential results, marked degraded.
	resp, err := e.Run(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.Pipelined || resp.Digest != want {
		t.Fatalf("open-breaker response degraded=%v pipelined=%v digest=%s, want degraded sequential %s",
			resp.Degraded, resp.Pipelined, resp.Digest, want)
	}

	// Cooldown elapses; the half-open probe fails and re-opens the breaker.
	setClock(t0.Add(2 * time.Hour))
	resumed("probe", panicky)
	if resp, err = e.Run(context.Background(), clean); err != nil || !resp.Degraded {
		t.Fatalf("after failed probe: degraded=%v err=%v, want re-opened breaker", resp.Degraded, err)
	}

	// Another cooldown; a clean probe closes the breaker for good.
	setClock(t0.Add(5 * time.Hour))
	if resp, err = e.Run(context.Background(), clean); err != nil || resp.Degraded || !resp.Pipelined {
		t.Fatalf("successful probe: %+v err=%v, want pipelined", resp, err)
	}
	if resp, err = e.Run(context.Background(), clean); err != nil || !resp.Pipelined || resp.Digest != want {
		t.Fatalf("post-close request: %+v err=%v, want pipelined with digest %s", resp, err, want)
	}
	if bi := e.breaker.info(clean.Workload); bi == nil || bi.State != "closed" {
		t.Fatalf("breaker after successful probe: %+v, want closed", bi)
	}

	s := e.Metrics().Snapshot()
	if s.BreakerTrips != 1 || s.BreakerOpen != 0 || s.Degraded < 2 || s.Resumes != 3 {
		t.Fatalf("breaker metrics trips=%d open=%d degraded=%d resumes=%d, want 1/0/>=2/3",
			s.BreakerTrips, s.BreakerOpen, s.Degraded, s.Resumes)
	}
}

// TestPoolQuarantineNeverReissues pins the structural quarantine contract
// directly against the pool, including under concurrent load (-race):
// once an instance is released as poisoned it must never come back from
// get(), and the quarantined counter must account for every poisoning.
func TestPoolQuarantineNeverReissues(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, e)
	req := Request{Workload: "list-traversal", N: 64}
	build, key, err := resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.compile(req, build, key)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential sanity: a poisoned release leaves the pool empty, a clean
	// release restocks it.
	bad := p.pool.make()
	p.pool.release(bad, true)
	if got := p.pool.get(); got != nil {
		t.Fatalf("pool reissued a quarantined instance %p", got)
	}
	good := p.pool.make()
	p.pool.release(good, false)
	if got := p.pool.get(); got != good {
		t.Fatalf("pool returned %p, want the cleanly released %p", got, good)
	}
	p.pool.release(good, false)

	// Concurrent load: workers check instances in and out while a
	// deterministic third of releases are poisoned; no quarantined pointer
	// may ever be reissued.
	var mu sync.Mutex
	poisonedSet := make(map[*rt.Instance]bool)
	var wg sync.WaitGroup
	var poisonedTotal int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				inst := p.pool.get()
				if inst == nil {
					inst = p.pool.make()
				}
				mu.Lock()
				if poisonedSet[inst] {
					t.Errorf("worker %d iteration %d: got quarantined instance %p", w, i, inst)
				}
				poison := (w+i)%3 == 0
				if poison {
					poisonedSet[inst] = true
					poisonedTotal++
				}
				mu.Unlock()
				p.pool.release(inst, poison)
			}
		}(w)
	}
	wg.Wait()

	s := e.Metrics().Snapshot()
	if s.PoolQuarantined < poisonedTotal+1 { // +1 for the sequential poisoning above
		t.Fatalf("quarantined counter %d, want >= %d", s.PoolQuarantined, poisonedTotal+1)
	}
}

// TestMidRunCancelKeepsPoolSafe cancels a supervised run mid-flight on a
// pooled instance and requires the engine to keep serving bit-identical
// results afterwards — a canceled run's instance must come back only
// through reset-and-verify (or be quarantined), never with residue.
func TestMidRunCancelKeepsPoolSafe(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, e)
	long := Request{Workload: "29.compress"}
	short := Request{Workload: "29.compress", DeadlineMillis: 30000}
	want := seqDigest(t, short)

	// Warm the pool with a clean run first so the canceled run reuses a
	// pooled instance.
	if resp, err := e.Run(context.Background(), short); err != nil || resp.Digest != want {
		t.Fatalf("warmup: resp=%+v err=%v", resp, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, long)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		// Either the run squeaked through or it was canceled; both are
		// acceptable, wrong answers and hangs are not.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned unexpected error class: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("canceled run did not return")
	}

	// The engine must keep producing the reference digest after the cancel.
	for i := 0; i < 3; i++ {
		resp, err := e.Run(context.Background(), short)
		if err != nil || resp.Digest != want {
			t.Fatalf("post-cancel run %d: resp=%+v err=%v, want digest %s", i, resp, err, want)
		}
	}
}

// TestEngineRecoverFinishesOrphans pins dswpd's startup contract: entries
// left in the store by a crashed process are re-executed to completion
// from their last durable commit (bit-identical digest), corrupt entries
// are skipped and GC'd, and undecodable metadata is GC'd — all reported
// in RecoveryStats and cleared from the store.
func TestEngineRecoverFinishesOrphans(t *testing.T) {
	store := ckptstore.NewMem()
	req := Request{Workload: "list-traversal", N: 1024}
	want := seqDigest(t, req)

	// Play the crashed process: a supervised run commits durable
	// checkpoints under the engine's key scheme, then dies on an injected
	// panic with resume disabled — exactly the state a SIGKILL leaves.
	prep := New(Options{Workers: 1, QueueDepth: 4})
	build, key, err := resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prep.compile(req, build, key)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := json.Marshal(req)
	_, srep, serr := supervisor.Run(context.Background(), supervisor.Pipeline{
		Threads: p.tr.Threads, Original: p.prog.F, LoopHeader: p.prog.LoopHeader,
		RegOwner: p.tr.RegOwner, Mem: p.prog.Mem, Regs: p.prog.Regs,
	}, supervisor.Policy{
		CheckpointEvery: 4, DisableResume: true,
		Store: store, StoreKey: "list-traversal.r000007", StoreMeta: meta,
		Faults: &rt.FaultPlan{Thread: map[int]failpoint.Policy{
			len(p.tr.Threads) - 1: {Action: failpoint.ActPanic, Nth: 400}}},
	})
	shutdown(t, prep)
	if serr == nil || srep.DurableCommits == 0 {
		t.Fatalf("crash rehearsal: err=%v commits=%d, want a failure with commits", serr, srep.DurableCommits)
	}

	// A second orphan with corrupted bytes and a third with garbage meta.
	entry, err := store.Get("list-traversal.r000007")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := *entry
	corrupt.Key = "list-traversal.r000008"
	if err := store.Put(&corrupt); err != nil {
		t.Fatal(err)
	}
	store.Corrupt("list-traversal.r000008")
	badMeta := *entry
	badMeta.Key = "list-traversal.r000009"
	badMeta.Meta = []byte("not json")
	if err := store.Put(&badMeta); err != nil {
		t.Fatal(err)
	}

	// The restarted process.
	e := New(Options{Workers: 1, QueueDepth: 4, Store: store})
	defer shutdown(t, e)
	rec, err := e.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Scanned != 3 || rec.Resumed != 1 || rec.Corrupt == 0 || rec.GCed != 2 || rec.Failed != 1 {
		t.Fatalf("recovery stats %+v, want scanned=3 resumed=1 corrupt>0 gced=2 failed=1", rec)
	}
	if len(rec.Runs) != 1 || rec.Runs[0].Digest != want {
		t.Fatalf("recovered runs %+v, want one run with digest %s", rec.Runs, want)
	}
	if rec.Runs[0].Iter <= 0 {
		t.Fatalf("recovered run resumed from iteration %d, want a durable commit > 0", rec.Runs[0].Iter)
	}
	if lr := e.LastRecovery(); lr == nil || lr.Resumed != 1 {
		t.Fatalf("LastRecovery = %+v, want the recovery pass", lr)
	}
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("store still holds %v after recovery", keys)
	}
	if s := e.Metrics().Snapshot(); s.Recovered != 1 {
		t.Fatalf("recovered metric = %d, want 1", s.Recovered)
	}
}
