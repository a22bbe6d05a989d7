package dswp

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestFacadePipelineListTraversal(t *testing.T) {
	p := ListTraversal(500)
	tr, err := Pipeline(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Threads) != 2 {
		t.Fatalf("threads = %d", len(tr.Threads))
	}
	m := FullWidth()
	base, err := RunBaseline(p, m)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := RunThreads(tr, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if piped.Cycles >= base.Cycles {
		t.Errorf("no speedup: base %d, dswp %d", base.Cycles, piped.Cycles)
	}
}

// TestFacadeRunConcurrent: the goroutine runtime times a real pipeline,
// with no fallback on the healthy path and a reported fallback cause when
// the run is sabotaged into failure.
func TestFacadeRunConcurrent(t *testing.T) {
	p := ListTraversal(500)
	tr, err := Pipeline(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := FullWidth()
	res, report, err := RunConcurrent(tr, p, m, RuntimeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Failure != nil || report.Resumed {
		t.Fatalf("unexpected fallback: %v", report.Failure)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles reported")
	}
	// Queue capacity 1 must still produce a valid timed run.
	if _, _, err := RunConcurrent(tr, p, m, RuntimeOptions{QueueCap: 1}); err != nil {
		t.Fatalf("cap 1: %v", err)
	}

	// Sabotage: the last stage panics mid-run. RunConcurrent fails unless
	// the timed run's memory image and live-outs equal the sequential
	// ones, so a nil error means the fallback landed the sequential state.
	pol, err := ParseFaultPolicy("panic(sabotage):nth(300)")
	if err != nil {
		t.Fatal(err)
	}
	opts := RuntimeOptions{Faults: &FaultPlan{Thread: map[int]FaultPolicy{len(tr.Threads) - 1: pol}}}
	res, report, err = RunConcurrent(tr, p, m, opts)
	if err != nil {
		t.Fatalf("sabotaged run: %v", err)
	}
	var sf *StageFailure
	if !errors.As(report.Failure, &sf) || !report.Resumed {
		t.Fatalf("sabotaged run: failure=%v resumed=%v, want a *StageFailure and a resume",
			report.Failure, report.Resumed)
	}
	// The fallback restarts from scratch, so it retires exactly the
	// baseline's instruction stream and times to the baseline's cycles.
	base, err := RunBaseline(p, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Cycles != base.Cycles {
		t.Fatalf("sabotaged run timed %d cycles, want the sequential baseline's %d",
			res.Cycles, base.Cycles)
	}
}

func TestFacadeRunConcurrentWithFaults(t *testing.T) {
	p := ListTraversal(300)
	tr, err := Pipeline(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := RuntimeOptions{Faults: RandomFaults(7, tr)}
	if _, report, err := RunConcurrent(tr, p, FullWidth(), opts); err != nil {
		t.Fatal(err)
	} else if report.Failure != nil {
		t.Fatalf("fault injection should perturb timing, not correctness: %v", report.Failure)
	}
}

func TestFacadeValidate(t *testing.T) {
	rep := Validate(ListTraversal(300), ValidateOptions{Seed: 3, FaultRuns: 3, Caps: []int{1, 8}})
	if rep.Skipped != "" {
		t.Fatalf("list traversal should be transformable: %s", rep)
	}
	if !rep.OK() {
		t.Fatalf("validation failed: %s", rep)
	}
	if rep.Runs < 5 {
		t.Fatalf("runs = %d, want >= 5 (interp sweep + runtime sweep + faults)", rep.Runs)
	}
}

func TestFacadeDoacross(t *testing.T) {
	p := ListTraversal(200)
	threads, err := Doacross(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFunctions(threads, p, FullWidth()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeRunThreadsCatchesDivergence(t *testing.T) {
	p := ListTraversal(100)
	tr, err := Pipeline(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the consumer thread: change the store offset.
	broken := false
	tr.Threads[1].Instrs(func(in *Instr) {
		if in.Op.String() == "store" && !broken {
			in.Imm = 0 // overwrite next pointers instead of values
			broken = true
		}
	})
	if !broken {
		t.Skip("no store found in consumer")
	}
	_, err = RunThreads(tr, p, FullWidth())
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("err = %v, want divergence", err)
	}
}

func TestFacadeWorkloadsRegistry(t *testing.T) {
	reg := Workloads()
	for _, name := range []string{"29.compress", "181.mcf", "wc", "164.gzip"} {
		build, ok := reg[name]
		if !ok {
			t.Fatalf("missing workload %s", name)
		}
		if p := build(); p.Name != name {
			t.Fatalf("builder for %s returns %s", name, p.Name)
		}
	}
}

func TestFacadeSentinelErrors(t *testing.T) {
	reg := Workloads()
	p := reg["164.gzip"]()
	_, err := Pipeline(p, Config{})
	if !errors.Is(err, ErrSingleSCC) {
		t.Fatalf("err = %v, want ErrSingleSCC", err)
	}
}

func TestFacadeParseAndBuildRoundTrip(t *testing.T) {
	f, err := Parse("func t {\n  liveout r2\nentry:\n    r1 = const 21\n    r2 = add r1, r1\n    ret\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "t" {
		t.Fatalf("name = %s", f.Name)
	}
	b := NewBuilder("built")
	b.Block("entry")
	b.Const(1)
	b.Ret()
	if err := b.F.Verify(); err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(f)
	if mem.Size() < 16 {
		t.Fatal("memory too small")
	}
	if len(Layout(f)) != 0 {
		t.Fatal("no objects declared, layout should be empty")
	}
}

func TestFacadeMachineConfigs(t *testing.T) {
	if FullWidth().FetchWidth != 2*HalfWidth().FetchWidth {
		t.Fatal("width configs inconsistent")
	}
}

func TestFacadeEngine(t *testing.T) {
	e := NewEngine(EngineOptions{Workers: 2, QueueDepth: 8})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := e.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()

	resp, err := e.Run(context.Background(), EngineRequest{Workload: "list-traversal", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pipelined || resp.Digest == "" {
		t.Fatalf("unexpected response: %+v", resp)
	}
	// Same request again: must be a cache hit with the same digest.
	again, err := e.Run(context.Background(), EngineRequest{Workload: "list-traversal", N: 64})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cache != "hit" || again.Digest != resp.Digest {
		t.Fatalf("second run: cache=%q digest match=%v", again.Cache, again.Digest == resp.Digest)
	}

	var snap *EngineSnapshot = e.Metrics().Snapshot()
	if snap.Compiles != 1 || snap.Completed != 2 {
		t.Fatalf("snapshot compiles=%d completed=%d, want 1/2", snap.Compiles, snap.Completed)
	}

	if _, err := e.Run(context.Background(), EngineRequest{Workload: "nope"}); err != nil {
		var uw *UnknownWorkloadError
		if !errors.As(err, &uw) {
			t.Fatalf("err = %v, want *UnknownWorkloadError", err)
		}
	} else {
		t.Fatal("unknown workload accepted")
	}

	mux := NewServerMux(e)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	hr, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", hr.StatusCode)
	}

	names := ServableWorkloads()
	if len(names) < 10 {
		t.Fatalf("only %d servable workloads", len(names))
	}
}
