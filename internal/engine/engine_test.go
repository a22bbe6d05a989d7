package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dswp/internal/core"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/profile"
	"dswp/internal/queue"
	"dswp/internal/testutil"
	"dswp/internal/workloads"
)

// seqDigest computes the sequential reference digest for a request the
// way the acceptance criterion demands: the untransformed loop on the
// interpreter, fresh state.
func seqDigest(t *testing.T, req Request) string {
	t.Helper()
	build, _, err := resolve(req)
	if err != nil {
		t.Fatal(err)
	}
	p := build()
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", workloads.StateDigest(res))
}

// settleGoroutines polls until the goroutine count returns to within
// slack of base, failing after a deadline — the leak detector every
// shutdown test ends with.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 { // the test runner itself jitters by a couple
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines did not settle: %d > base %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConcurrentIdenticalSingleCompile is the single-flight acceptance
// test: 64 concurrent identical requests must trigger exactly one
// core.Apply and every response must be bit-identical to the sequential
// reference.
func TestConcurrentIdenticalSingleCompile(t *testing.T) {
	e := New(Options{Workers: 8, QueueDepth: 128})
	defer shutdown(t, e)
	req := Request{Workload: "list-traversal", N: 256}
	want := seqDigest(t, req)

	const n = 64
	var wg sync.WaitGroup
	resps := make([]*Response, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = e.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()

	hits := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if resps[i].Digest != want {
			t.Fatalf("request %d digest %s, want %s", i, resps[i].Digest, want)
		}
		if resps[i].Cache == "hit" {
			hits++
		}
	}
	s := e.Metrics().Snapshot()
	if s.Compiles != 1 {
		t.Fatalf("%d compiles for %d identical requests, want exactly 1", s.Compiles, n)
	}
	if s.CacheMisses != 1 || s.CacheHits != n-1 {
		t.Fatalf("cache hits/misses = %d/%d, want %d/1", s.CacheHits, s.CacheMisses, n-1)
	}
	if hits != n-1 {
		t.Fatalf("%d responses marked hit, want %d", hits, n-1)
	}
	if s.Completed != n {
		t.Fatalf("completed = %d, want %d", s.Completed, n)
	}
}

// TestConcurrentMixedWorkloads serves 64 concurrent requests across a
// workload mix (pipelined, packed, parametric, and a single-SCC case),
// each workload in every mode, twice, on an engine per queue substrate,
// and checks every response against its sequential reference, with
// exactly one compile per distinct cache key and warm instances reused
// in the second wave.
func TestConcurrentMixedWorkloads(t *testing.T) {
	testutil.VerifyNone(t)
	var mix []Request
	for _, req := range []Request{
		{Workload: "list-traversal", N: 200},
		{Workload: "list-traversal", N: 200, PackFlows: true},
		{Workload: "list-of-lists", Outer: 30, Inner: 4},
		{Workload: "wc"},
		{Workload: "adpcmdec"},
		{Workload: "164.gzip"}, // single SCC: served sequentially
	} {
		for _, mode := range []string{"supervised", "concurrent", "sequential"} {
			req.Mode = mode
			mix = append(mix, req)
		}
	}
	want := make([]string, len(mix))
	keys := map[string]bool{}
	for i, req := range mix {
		want[i] = seqDigest(t, req)
		_, key, err := resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		keys[key] = true
	}

	for _, kind := range []queue.Kind{queue.KindChannel, queue.KindRing} {
		t.Run(kind.String(), func(t *testing.T) {
			e := New(Options{Workers: 8, QueueDepth: 128, Queue: kind})
			defer shutdown(t, e)

			// Two waves: the first compiles every key and fills the warm
			// pools; the second must be served entirely from the cache,
			// and released instances must come back warm under
			// concurrent clients.
			const n = 64
			var wg sync.WaitGroup
			var warm atomic.Int64
			fail := make(chan string, 2*n)
			for wave := 0; wave < 2; wave++ {
				for i := 0; i < n; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						req := mix[i%len(mix)]
						resp, err := e.Run(context.Background(), req)
						if err != nil {
							fail <- fmt.Sprintf("wave %d request %d (%s %s): %v", wave, i, req.Workload, req.Mode, err)
							return
						}
						if resp.Digest != want[i%len(mix)] {
							fail <- fmt.Sprintf("wave %d request %d (%s %s): digest %s, want %s",
								wave, i, req.Workload, req.Mode, resp.Digest, want[i%len(mix)])
						}
						if wave == 1 && resp.Cache != "hit" {
							fail <- fmt.Sprintf("wave 1 request %d (%s): cache %q, want hit", i, req.Workload, resp.Cache)
						}
						if wave == 1 && resp.Warm {
							warm.Add(1)
						}
					}(i)
				}
				wg.Wait()
			}
			close(fail)
			for msg := range fail {
				t.Error(msg)
			}
			if warm.Load() == 0 {
				t.Error("no second-wave request reused a pooled instance")
			}

			s := e.Metrics().Snapshot()
			if s.Compiles != int64(len(keys)) {
				t.Errorf("%d compiles, want exactly %d (one per distinct key)", s.Compiles, len(keys))
			}
			if s.Shed != 0 {
				t.Errorf("%d requests shed with queue depth 128", s.Shed)
			}
		})
	}
}

// TestShardSpillSingleFlight keeps its name from the sharded engine,
// where overflowing requests spilled to a peer shard. With one queue the
// overflow is shed instead, and the contract that remains is the same:
// concurrent same-key arrivals against a saturated engine compile the
// program exactly once, every served response is correct, and every
// refusal is ErrOverloaded.
func TestShardSpillSingleFlight(t *testing.T) {
	testutil.VerifyNone(t)
	e := New(Options{Workers: 4, QueueDepth: 4, CacheCap: 8})
	req := Request{Workload: "list-of-lists", Outer: 50, Inner: 6, InjectStallUS: 500}
	want := seqDigest(t, Request{Workload: "list-of-lists", Outer: 50, Inner: 6})
	const n = 16
	var wg sync.WaitGroup
	var mu sync.Mutex
	var completed, shed int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := e.Run(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if resp.Digest != want {
					t.Errorf("served response has digest %s, want %s", resp.Digest, want)
				}
				completed++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error class: %v", err)
			}
		}()
	}
	wg.Wait()
	s := e.Metrics().Snapshot()
	shutdown(t, e)
	if completed == 0 {
		t.Fatal("no request completed")
	}
	if s.Compiles != 1 {
		t.Fatalf("Compiles = %d across %d concurrent same-key requests, want exactly 1", s.Compiles, n)
	}
	if s.Completed != completed || s.Shed != shed {
		t.Fatalf("snapshot completed/shed = %d/%d, callers saw %d/%d", s.Completed, s.Shed, completed, shed)
	}
}

// TestShardLifecycleNoLeaks keeps its name from the sharded engine: a
// multi-worker engine serving concurrent distinct keys must leave no
// goroutine behind after Shutdown.
func TestShardLifecycleNoLeaks(t *testing.T) {
	testutil.VerifyNone(t)
	e := New(Options{Workers: 8, QueueDepth: 32, CacheCap: 8})
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			if _, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 64 + n}); err != nil {
				t.Errorf("run: %v", err)
			}
		}(int64(i))
	}
	wg.Wait()
	shutdown(t, e)
}

// TestOverloadShedding saturates a deliberately tiny engine and checks
// shedding is typed, counted, and non-destructive: every request either
// completes correctly or fails with ErrOverloaded.
func TestOverloadShedding(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 1})
	defer shutdown(t, e)
	req := Request{Workload: "list-traversal", N: 400}
	want := seqDigest(t, req)

	const n = 32
	var wg sync.WaitGroup
	var mu sync.Mutex
	var served, shed int
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := e.Run(context.Background(), req)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				if resp.Digest != want {
					t.Errorf("served response has digest %s, want %s", resp.Digest, want)
				}
				served++
			case errors.Is(err, ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error class: %v", err)
			}
		}()
	}
	wg.Wait()

	if served == 0 {
		t.Fatal("nothing was served")
	}
	if shed == 0 {
		t.Fatal("nothing was shed despite worker=1 queue=1 and 32 concurrent requests")
	}
	s := e.Metrics().Snapshot()
	if s.Shed != int64(shed) {
		t.Errorf("metrics shed = %d, callers saw %d", s.Shed, shed)
	}
	// The engine must still serve correctly after the storm.
	resp, err := e.Run(context.Background(), req)
	if err != nil || resp.Digest != want {
		t.Fatalf("post-storm request: resp=%v err=%v", resp, err)
	}
}

// TestGracefulShutdown pins the drain contract: in-flight runs complete
// with correct results, queued-but-unstarted requests fail with
// ErrDraining, later submissions are rejected, and every engine goroutine
// exits.
func TestGracefulShutdown(t *testing.T) {
	testutil.VerifyNone(t)
	base := runtime.NumGoroutine()
	e := New(Options{Workers: 1, QueueDepth: 8})
	// The stall injection stretches each run to tens of milliseconds, so
	// the single worker is deterministically still busy (and the queue
	// still populated) when the drain begins — without it the runs are
	// microseconds long and the overlap window is a scheduling accident.
	req := Request{Workload: "list-of-lists", Outer: 50, Inner: 6, InjectStallUS: 500}
	want := seqDigest(t, req)

	// Fill the single worker plus the queue behind it.
	const n = 6
	type outcome struct {
		resp *Response
		err  error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := e.Run(context.Background(), req)
			results <- outcome{resp, err}
		}()
	}
	// Wait until the worker is actually executing and the queue holds the
	// rest, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := e.Metrics().Snapshot()
		if s.InFlight > 0 && s.Queued > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("engine never reached in-flight+queued state: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}

	var completed, drained int
	for i := 0; i < n; i++ {
		out := <-results
		switch {
		case out.err == nil:
			if out.resp.Digest != want {
				t.Errorf("in-flight run digest %s, want %s", out.resp.Digest, want)
			}
			completed++
		case errors.Is(out.err, ErrDraining):
			drained++
		default:
			t.Errorf("unexpected shutdown-era error: %v", out.err)
		}
	}
	if completed == 0 {
		t.Error("no in-flight run completed across shutdown")
	}
	if drained == 0 {
		t.Error("no queued request got the typed drain error")
	}
	if _, err := e.Run(context.Background(), req); !errors.Is(err, ErrDraining) {
		t.Errorf("post-shutdown Run: err = %v, want ErrDraining", err)
	}
	settleGoroutines(t, base)
}

// TestShutdownDeadlineHardCancels starts a long run, then shuts down with
// an immediate deadline: the in-flight run must be canceled through its
// context rather than outliving the engine.
func TestShutdownDeadlineHardCancels(t *testing.T) {
	base := runtime.NumGoroutine()
	e := New(Options{Workers: 1, QueueDepth: 2})
	done := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), Request{Workload: "29.compress"})
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("run never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: drain grace is zero
	if err := e.Shutdown(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("hard shutdown: err = %v, want context.Canceled", err)
	}
	select {
	case err := <-done:
		// The run may have squeaked in before the cancel landed; both a
		// completion and a cancellation error are acceptable terminal
		// states. What is not acceptable is hanging.
		_ = err
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight run outlived a hard shutdown")
	}
	settleGoroutines(t, base)
}

// TestWarmPoolReuse runs one key repeatedly and checks the pool turns
// over: after the first round instances come back warm, and warm results
// stay bit-identical.
func TestWarmPoolReuse(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 8})
	defer shutdown(t, e)
	req := Request{Workload: "list-traversal", N: 300}
	want := seqDigest(t, req)

	warm := 0
	for i := 0; i < 6; i++ {
		resp, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if resp.Digest != want {
			t.Fatalf("run %d digest %s, want %s", i, resp.Digest, want)
		}
		if resp.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("no run reused a pooled instance")
	}
	s := e.Metrics().Snapshot()
	if s.PoolHits == 0 || s.PoolMakes == 0 {
		t.Fatalf("pool hits/makes = %d/%d, want both > 0", s.PoolHits, s.PoolMakes)
	}
}

// TestCacheLRUEviction fills a 2-entry cache with 4 distinct keys and
// checks residency stays bounded, evictions are counted, and an evicted
// key recompiles on return.
func TestCacheLRUEviction(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 8, CacheCap: 2})
	defer shutdown(t, e)
	for round := 0; round < 2; round++ {
		for n := int64(101); n <= 104; n++ {
			if _, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: n}); err != nil {
				t.Fatal(err)
			}
			if got := e.cache.len(); got > 2 {
				t.Fatalf("cache holds %d entries, cap 2", got)
			}
		}
	}
	s := e.Metrics().Snapshot()
	if s.CacheEvicts == 0 {
		t.Error("no evictions with 4 keys in a 2-entry cache")
	}
	// Every request in round 2 re-missed (its entry was evicted in the
	// interim), so compiles exceed the 4 distinct keys.
	if s.Compiles <= 4 {
		t.Errorf("compiles = %d, want > 4 after eviction churn", s.Compiles)
	}
}

// TestSingleSCCServedSequentially checks the engine serves workloads DSWP
// cannot split (164.gzip) by falling back to the interpreter.
func TestSingleSCCServedSequentially(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, e)
	req := Request{Workload: "164.gzip"}
	want := seqDigest(t, req)
	resp, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Pipelined {
		t.Error("164.gzip reported as pipelined; it is a single SCC")
	}
	if resp.Digest != want {
		t.Fatalf("digest %s, want %s", resp.Digest, want)
	}
	// Second request hits the cached (sequential) pipeline.
	resp, err = e.Run(context.Background(), req)
	if err != nil || resp.Cache != "hit" {
		t.Fatalf("second request: cache=%q err=%v, want hit/nil", resp.Cache, err)
	}
}

// TestUnknownWorkloadTyped pins the typed bad-request error.
func TestUnknownWorkloadTyped(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, e)
	_, err := e.Run(context.Background(), Request{Workload: "no-such-loop"})
	var uw *UnknownWorkloadError
	if !errors.As(err, &uw) || uw.Name != "no-such-loop" {
		t.Fatalf("err = %v, want *UnknownWorkloadError{no-such-loop}", err)
	}
}

// TestRequestDeadline pins per-request deadline plumbing: a microscopic
// deadline must surface context.DeadlineExceeded, not hang or succeed.
func TestRequestDeadline(t *testing.T) {
	e := New(Options{Workers: 1, QueueDepth: 4})
	defer shutdown(t, e)
	// Occupy the worker so the deadlined request expires in the queue.
	blocker := make(chan struct{})
	go func() {
		_, _ = e.Run(context.Background(), Request{Workload: "29.compress"})
		close(blocker)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	_, err := e.Run(context.Background(), Request{Workload: "list-traversal", N: 100, DeadlineMillis: 1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	<-blocker
}

// TestOutcomeConservation pins that every request's outcome is recorded
// exactly once, wherever it finishes: after Shutdown returns, requests
// equals completed+failed+shed+drained+expired on every path — including
// those where the caller stops waiting before a worker finishes the job.
func TestOutcomeConservation(t *testing.T) {
	bg := context.Background()
	// slow keeps the single worker busy for tens of milliseconds.
	slow := Request{Workload: "list-of-lists", Outer: 50, Inner: 6, InjectStallUS: 500}
	for _, tc := range []struct {
		name string
		opts Options
		// drive sends the case's requests and returns how many it sent.
		drive func(t *testing.T, e *Engine) int64
	}{
		{"queued-expiry", Options{Workers: 1, QueueDepth: 4}, func(t *testing.T, e *Engine) int64 {
			busy := runAsync(e, bg, slow)
			waitFor(t, func() bool { return e.Metrics().Snapshot().InFlight == 1 })
			_, err := e.Run(bg, Request{Workload: "list-traversal", N: 100, DeadlineMillis: 1})
			wantErr(t, err, context.DeadlineExceeded)
			wantErr(t, <-busy, nil)
			return 2
		}},
		{"mid-run-deadline", Options{Workers: 1, QueueDepth: 4}, func(t *testing.T, e *Engine) int64 {
			_, err := e.Run(bg, slow) // compiles, so the next run starts at once
			wantErr(t, err, nil)
			req := slow
			req.DeadlineMillis = 5
			_, err = e.Run(bg, req)
			wantErr(t, err, context.DeadlineExceeded)
			return 2
		}},
		{"caller-cancel", Options{Workers: 1, QueueDepth: 4}, func(t *testing.T, e *Engine) int64 {
			ctx, cancel := context.WithCancel(bg)
			run := runAsync(e, ctx, slow)
			waitFor(t, func() bool { return e.Metrics().Snapshot().InFlight == 1 })
			cancel()
			wantErr(t, <-run, context.Canceled)
			return 1
		}},
		{"admission-failpoint", Options{Workers: 1}, func(t *testing.T, e *Engine) int64 {
			failpoint.Reset()
			defer failpoint.Reset()
			if err := failpoint.Enable("engine/admission/enqueue", "error(x):once"); err != nil {
				t.Fatal(err)
			}
			_, err := e.Run(bg, Request{Workload: "list-traversal", N: 64})
			wantErr(t, err, failpoint.ErrInjected)
			return 1
		}},
		{"shed", Options{Workers: 1, QueueDepth: 1}, func(t *testing.T, e *Engine) int64 {
			busy := runAsync(e, bg, slow)
			waitFor(t, func() bool { return e.Metrics().Snapshot().InFlight == 1 })
			queued := runAsync(e, bg, slow)
			waitFor(t, func() bool { return e.Metrics().Snapshot().Queued == 1 })
			_, err := e.Run(bg, slow)
			wantErr(t, err, ErrOverloaded)
			wantErr(t, <-busy, nil)
			wantErr(t, <-queued, nil)
			return 3
		}},
		{"drain", Options{Workers: 1, QueueDepth: 4}, func(t *testing.T, e *Engine) int64 {
			busy := runAsync(e, bg, slow)
			waitFor(t, func() bool { return e.Metrics().Snapshot().InFlight == 1 })
			queued := runAsync(e, bg, slow)
			waitFor(t, func() bool { return e.Metrics().Snapshot().Queued == 1 })
			shutdown(t, e)
			wantErr(t, <-busy, nil)
			wantErr(t, <-queued, ErrDraining)
			_, err := e.Run(bg, slow)
			wantErr(t, err, ErrDraining)
			return 3
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(tc.opts)
			sent := tc.drive(t, e)
			shutdown(t, e) // waits for every worker, so the counters are final
			s := e.Metrics().Snapshot()
			if s.Requests != sent {
				t.Errorf("requests = %d, want %d", s.Requests, sent)
			}
			if sum := s.Completed + s.Failed + s.Shed + s.Drained + s.Expired; sum != s.Requests {
				t.Errorf("requests = %d but completed %d + failed %d + shed %d + drained %d + expired %d = %d",
					s.Requests, s.Completed, s.Failed, s.Shed, s.Drained, s.Expired, sum)
			}
			if s.InFlight != 0 || s.Queued != 0 {
				t.Errorf("in_flight = %d, queued = %d after shutdown, want 0", s.InFlight, s.Queued)
			}
		})
	}
}

// runAsync runs req on a goroutine and delivers its error.
func runAsync(e *Engine, ctx context.Context, req Request) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, req)
		errc <- err
	}()
	return errc
}

// waitFor polls until cond holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("engine never reached the awaited state")
		}
		time.Sleep(time.Millisecond)
	}
}

// wantErr fails unless err matches want (nil means success).
func wantErr(t *testing.T, err, want error) {
	t.Helper()
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

func shutdown(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestProfilesSharedAcrossConfigs: every config of one workload compiles
// from one profiling run, and a compile from the shared profile is the
// compile a fresh profile gives. That rests on workload builds being
// deterministic, so the test first checks that two builds of every
// servable workload profile to the same instruction counts.
func TestProfilesSharedAcrossConfigs(t *testing.T) {
	for _, b := range builtins() {
		x, y := b.Build(), b.Build()
		px, err := profile.Collect(x.F, x.Options())
		if err != nil {
			t.Fatal(err)
		}
		py, err := profile.Collect(y.F, y.Options())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(px.InstrCount, py.InstrCount) || px.TotalSteps != py.TotalSteps {
			t.Errorf("%s: two builds profile differently", b.Name)
		}
	}

	e := New(Options{Workers: 1})
	defer e.Shutdown(context.Background())
	reqs := []Request{{Workload: "wc"}, {Workload: "wc", Threads: 3, PackFlows: true}, {Workload: "181.mcf"}}
	for _, req := range reqs {
		build, key, err := resolve(req)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := e.compile(req, build, key)
		if err != nil {
			t.Fatal(err)
		}
		prog := build()
		prof, err := profile.Collect(prog.F, prog.Options())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := core.Apply(prog.F, prog.LoopHeader, prof, configOf(req))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(shared.tr.Stats.StageWeights, fresh.Stats.StageWeights) ||
			shared.tr.NumQueues != fresh.NumQueues {
			t.Errorf("%s: compile from the shared profile differs from a fresh one", key)
		}
		resp, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want := seqDigest(t, req); resp.Digest != want {
			t.Errorf("%s: digest %s, want %s", key, resp.Digest, want)
		}
	}
	if n := len(e.profiles.runs); n != 2 {
		t.Errorf("profiling runs cached = %d, want one per workload (2)", n)
	}
}
