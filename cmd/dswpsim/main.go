// Command dswpsim runs a workload on the cycle-level dual-core model under
// a chosen execution scheme and machine configuration, printing cycles,
// per-core IPC, stall breakdowns, and synchronization-array occupancy.
//
//	dswpsim -workload 181.mcf -scheme dswp -width full -comm 1 -qsize 32
//
// The functional engine producing the traces is selectable: the
// deterministic round-robin interpreter with unbounded queues
// (-runtime=interp), or the goroutine-backed concurrent runtime
// (-runtime=goroutine) with bounded queues (-queuecap), watchdog deadlock
// detection, and optional seed-derived fault injection (-faults N). A
// concurrent-runtime failure ends the run with its typed error and exit
// code; -runtime=supervised is the mode that recovers from one.
//
//	dswpsim -workload 181.mcf -runtime=goroutine -queuecap=1 -faults=42
//
// -queue selects the communication substrate for the concurrent engines:
// buffered Go channels (default) or the lock-free SPSC ring buffer
// (-queue=ring). -pack enables compiler-side flow packing, coalescing
// same-point flows between a thread pair into multi-word packets on one
// shared queue.
//
//	dswpsim -workload 181.mcf -runtime=goroutine -queue=ring -pack
//
// -validate runs the differential validation harness instead of a timing
// run: interpreter + concurrent runtime across capacity sweeps and
// randomized fault/schedule seeds (reproducible via -seed), diffed against
// sequential execution.
//
//	dswpsim -workload all -validate -seed 7
//
// Observability: -metrics prints the pipeline report (stage utilization,
// queue pressure, fill/drain breakdown, times in nanoseconds) collected
// from the concurrent runtime, -trace FILE exports the produce/consume/
// stall event trace as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing), and -stats prints the transformation's compile-time
// pass statistics. -metrics and -trace need a pipelined scheme on
// -runtime=goroutine or supervised: the goroutine runtime is the only
// source of pipeline events. The workload may also be given as a
// positional argument:
//
//	dswpsim -runtime=goroutine -trace out.json -metrics listsum
//
// -runtime=supervised runs the fault-tolerant supervisor: cooperative
// cancellation (-deadline), iteration checkpointing (-ckpt), and sequential
// resume from the last checkpoint on any failure of the concurrent attempt
// (disable with -resume=false).
// The chaos soak lives in cmd/dswpchaos.
//
//	dswpsim -runtime=supervised -faults=42 -deadline=10s 181.mcf
//
// Exit codes are distinct per failure class (see -h): 2 deadlock,
// 3 timeout, 4 validation mismatch, 5 stage panic, 1 anything else.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dswp/internal/core"
	"dswp/internal/doacross"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/profile"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/sim"
	"dswp/internal/supervisor"
	"dswp/internal/validate"
	"dswp/internal/workloads"
)

func main() {
	workload := flag.String("workload", "181.mcf", "workload name (dswpc -list shows all; 'all' with -validate)")
	scheme := flag.String("scheme", "dswp", "execution scheme: base | dswp | best | doacross")
	width := flag.String("width", "full", "core width: full | half")
	comm := flag.Int("comm", 1, "inter-core communication latency (cycles)")
	qsize := flag.Int("qsize", 32, "synchronization-array queue depth (timing model)")
	threads := flag.Int("threads", 2, "thread count (doacross supports >2)")
	engine := flag.String("runtime", "interp", "functional engine: interp | goroutine | supervised")
	queuecap := flag.Int("queuecap", 0, fmt.Sprintf("queue capacity of the goroutine and supervised runtimes (0 = %d; interp queues are unbounded)", rt.DefaultQueueCap))
	queueKind := flag.String("queue", "", "communication substrate: channel | ring (default channel)")
	pack := flag.Bool("pack", false, "coalesce same-point flows into multi-word queue packets (compiler-side flow packing)")
	faults := flag.Uint64("faults", 0, "fault-injection seed for the goroutine runtime (0 = none)")
	seed := flag.Uint64("seed", 1, "randomization seed for -validate (logged for reproduction)")
	doValidate := flag.Bool("validate", false, "run the differential validation harness instead of a timing run")
	traceOut := flag.String("trace", "", "write the functional run's event trace as Chrome trace-event JSON to FILE")
	metrics := flag.Bool("metrics", false, "print the pipeline metrics report for the functional run")
	stats := flag.Bool("stats", false, "print the transformation's compile-time pass statistics")
	deadline := flag.Duration("deadline", 0, "overall wall-clock budget for the supervised runtime (0 = none)")
	resume := flag.Bool("resume", true, "sequentially resume from the last checkpoint on unrecoverable failure (supervised runtime)")
	ckptEvery := flag.Int64("ckpt", 0, "checkpoint period in outer-loop iterations (supervised runtime; 0 = default)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() > 0 {
		*workload = flag.Arg(0)
	}

	if *doValidate {
		runValidation(*workload, *seed)
		return
	}

	if *metrics || *traceOut != "" {
		if err := instrumentable(*engine, *scheme); err != nil {
			fail(err)
		}
	}
	p, err := findWorkload(*workload)
	if err != nil {
		fail(err)
	}
	cfg := sim.FullWidth()
	if *width == "half" {
		cfg = sim.HalfWidth()
	}
	cfg = cfg.WithCommLatency(*comm).WithQueueSize(*qsize)

	kind, err := queue.ParseKind(*queueKind)
	if err != nil {
		fail(err)
	}
	runner := &runner{
		engine: *engine, queueCap: *queuecap, queueKind: kind, pack: *pack, faultSeed: *faults,
		instrument: *metrics || *traceOut != "",
		deadline:   *deadline, resume: *resume, ckptEvery: *ckptEvery,
	}
	traces, passStats, err := buildTraces(p, *scheme, *threads, runner)
	if err != nil {
		fail(err)
	}
	res, err := sim.Run(cfg, traces)
	if err != nil {
		fail(err)
	}

	if *stats {
		if passStats == nil {
			fmt.Printf("pass stats: not available for scheme %q\n\n", *scheme)
		} else {
			fmt.Print(passStats)
			if runner.psReport != nil {
				fmt.Print(runner.psReport)
			}
			fmt.Println()
		}
	}

	fmt.Printf("workload %s, scheme %s, machine %s (comm %d, queues %dx%d)\n",
		p.Name, *scheme, cfg.Name, cfg.CommLatency, cfg.NumQueues, cfg.QueueSize)
	fmt.Printf("cycles: %d   machine IPC: %.2f\n", res.Cycles, res.IPC())
	for i, c := range res.Cores {
		fmt.Printf("core %d: %8d cycles, %8d instrs (+%d flow ops), IPC %.2f, "+
			"stalls full/empty %d/%d, mispredicts %d, L1/L2 misses %d/%d\n",
			i, c.Cycles, c.Instrs, c.FlowOps, c.IPC(),
			c.StallFull, c.StallEmpty, c.Mispredicts, c.L1Misses, c.L2Misses)
	}
	if len(res.Cores) > 1 {
		occ := res.Occ
		total := float64(occ.Total())
		fmt.Printf("occupancy: %.1f%% full/producer-stalled, %.1f%% balanced, "+
			"%.1f%% empty/active, %.1f%% empty/consumer-stalled\n",
			100*float64(occ.FullProducerStalled)/total,
			100*float64(occ.BalancedBothActive)/total,
			100*float64(occ.EmptyBothActive)/total,
			100*float64(occ.EmptyConsumerStalled)/total)
	}

	names := make([]string, len(traces))
	for i, tr := range traces {
		names[i] = tr.Fn.Name
	}
	if *metrics {
		fmt.Println()
		fmt.Print(obs.FormatReport(runner.metrics, names))
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := runner.trace.WriteChrome(f, names); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote Chrome trace (%d events) to %s\n", len(runner.trace.Events()), *traceOut)
		if lost := runner.trace.Lost(); lost > 0 {
			fmt.Printf("note: ring buffers wrapped, oldest %d events lost\n", lost)
		}
	}
}

// usage extends the default flag help with the exit-code contract, so
// scripts and CI can branch on failure class without parsing stderr.
func usage() {
	out := flag.CommandLine.Output()
	fmt.Fprintf(out, "usage: dswpsim [flags] [workload]\n\nFlags:\n")
	flag.PrintDefaults()
	fmt.Fprint(out, `
Exit codes:
  0  success
  1  generic failure (bad flags, unknown workload, I/O error)
  2  pipeline deadlock (runtime.DeadlockError)
  3  watchdog timeout (runtime.TimeoutError)
  4  differential validation mismatch (validate.MismatchError)
  5  stage panic (runtime.StageFailure)
`)
}

func runValidation(workload string, seed uint64) {
	// Always log the seed up front — a reproduction must not depend on a
	// failure (or any particular report line) being printed.
	fmt.Printf("validation seed %d (reproduce with -validate -seed %d)\n", seed, seed)
	opts := validate.Options{Seed: seed, Logf: func(f string, a ...any) {
		fmt.Printf(f+"\n", a...)
	}}
	var reps []*validate.Report
	if workload == "all" {
		reps = validate.Suite(opts)
	} else {
		p, err := findWorkload(workload)
		if err != nil {
			fail(err)
		}
		reps = []*validate.Report{validate.Program(p, opts)}
	}
	failed := 0
	for _, rep := range reps {
		fmt.Println(rep)
		if !rep.OK() {
			failed++
		}
	}
	if failed > 0 {
		// Divergence is the harness's headline failure; exit with the
		// mismatch code so CI can tell "wrong answer" from plumbing errors.
		fail(&validate.MismatchError{Tag: "validate", Word: -1,
			Detail: fmt.Sprintf("%d workload(s) failed validation (seed %d)", failed, seed)})
	}
}

func findWorkload(name string) (*workloads.Program, error) {
	switch name {
	case "list-traversal":
		return workloads.ListTraversal(2000), nil
	case "list-of-lists", "listsum":
		return workloads.ListOfLists(100, 6), nil
	}
	for _, wb := range append(append(workloads.Table1Suite(), workloads.CaseStudies()...), workloads.ReplicationSuite()...) {
		if wb.Name == name {
			return wb.Build(), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runner selects the functional engine that executes thread functions and
// produces the traces the timing model replays.
type runner struct {
	engine    string
	queueCap  int
	queueKind queue.Kind
	pack      bool
	faultSeed uint64

	// Supervised-runtime policy knobs (-deadline, -resume, -ckpt);
	// regOwner is filled by buildTraces from the transformation so
	// the supervisor can checkpoint.
	deadline  time.Duration
	resume    bool
	ckptEvery int64
	regOwner  []int

	// instrument attaches metrics + trace recorders to the functional run;
	// after execute they hold the collected data.
	instrument bool
	metrics    *obs.Metrics
	trace      *obs.Trace

	// psReport is the PS-DSWP replication analysis of the transformed
	// pipeline (dswp/best schemes only), printed alongside -stats.
	psReport *psdswp.Report
}

// instrumentable rejects -metrics and -trace on runs that emit no
// pipeline events: the interpreter and the sequential base scheme.
func instrumentable(engine, scheme string) error {
	if engine == "" || engine == "interp" || scheme == "base" {
		return fmt.Errorf("-metrics and -trace need a pipelined scheme on -runtime=goroutine (or supervised); got -runtime=%s -scheme=%s", engine, scheme)
	}
	return nil
}

// recorder builds the instrumentation sink for a concurrent run of
// nThreads threads over nQueues queues.
func (r *runner) recorder(nThreads, nQueues int) obs.Recorder {
	if !r.instrument {
		return nil
	}
	r.metrics = obs.NewMetrics(nThreads, nQueues)
	r.trace = obs.NewTrace(nThreads, 0)
	return obs.Multi(r.metrics, r.trace)
}

// execute runs fns under the selected engine. p supplies live-ins, the
// memory image, and (for the supervised runtime) the original function a
// failed run resumes; numQueues feeds fault derivation and recorder
// sizing. The goroutine runtime reports its failure as an error.
func (r *runner) execute(fns []*ir.Function, p *workloads.Program, numQueues int, opts interp.Options) ([]*interp.ThreadResult, error) {
	switch r.engine {
	case "", "interp":
		res, err := interp.RunThreads(fns, opts)
		if err != nil {
			return nil, err
		}
		return res.Threads, nil
	case "goroutine":
		ropts := rt.Options{
			QueueCap: r.queueCap, Queue: r.queueKind, Regs: p.Regs, Mem: p.Mem, RecordTrace: true,
			Recorder: r.recorder(len(fns), numQueues),
		}
		if r.faultSeed != 0 {
			ropts.Faults = rt.RandomFaults(r.faultSeed, len(fns), numQueues)
		}
		res, err := rt.Run(fns, ropts)
		if err != nil {
			return nil, err
		}
		return res.Threads, nil
	case "supervised":
		pol := supervisor.Policy{
			QueueCap:        r.queueCap,
			Queue:           r.queueKind,
			Deadline:        r.deadline,
			CheckpointEvery: r.ckptEvery,
			DisableResume:   !r.resume,
			RecordTrace:     true,
			Recorder:        r.recorder(len(fns), numQueues),
		}
		if r.faultSeed != 0 {
			pol.Faults = rt.RandomFaults(r.faultSeed, len(fns), numQueues)
		}
		res, srep, err := supervisor.Run(context.Background(), supervisor.Pipeline{
			Threads: fns, Original: p.F, LoopHeader: p.LoopHeader,
			RegOwner: r.regOwner, Mem: p.Mem, Regs: p.Regs,
		}, pol)
		if err != nil {
			return nil, err
		}
		if srep.Failure != nil {
			from := "scratch"
			if srep.ResumeIter >= 0 {
				from = fmt.Sprintf("iteration %d (%d checkpoints committed)", srep.ResumeIter, srep.Checkpoints)
			}
			fmt.Fprintf(os.Stderr,
				"dswpsim: supervised attempt failed (%v), resumed sequentially from %s\n", srep.Failure, from)
		}
		return res.Threads, nil
	}
	return nil, fmt.Errorf("unknown runtime %q (want interp, goroutine, or supervised)", r.engine)
}

// countQueues sizes the synchronization array used by a thread set.
func countQueues(fns []*ir.Function) int {
	n := 0
	for _, fn := range fns {
		fn.Instrs(func(in *ir.Instr) {
			if in.Op.IsFlow() && in.Queue+1 > n {
				n = in.Queue + 1
			}
		})
	}
	return n
}

func buildTraces(p *workloads.Program, scheme string, threads int, r *runner) ([]*interp.ThreadResult, *obs.PassStats, error) {
	opts := p.Options()
	opts.RecordTrace = true
	switch scheme {
	case "base":
		res, err := interp.Run(p.F, opts)
		if err != nil {
			return nil, nil, err
		}
		return res.Threads, nil, nil
	case "dswp", "best":
		prof, err := profile.Collect(p.F, p.Options())
		if err != nil {
			return nil, nil, err
		}
		a, err := core.Analyze(p.F, p.LoopHeader, prof, core.Config{NumThreads: threads, PackFlows: r.pack})
		if err != nil {
			return nil, nil, err
		}
		if a.NumSCCs() == 1 {
			return nil, nil, fmt.Errorf("%s: single SCC, DSWP not applicable", p.Name)
		}
		part := a.Heuristic()
		if scheme == "best" {
			best := part
			bestCycles := int64(-1)
			for _, cand := range a.Enumerate(512) {
				tr, err := a.Transform(cand)
				if err != nil {
					continue
				}
				run, err := interp.RunThreads(tr.Threads, opts)
				if err != nil {
					continue
				}
				res, err := sim.Run(sim.FullWidth(), run.Threads)
				if err != nil {
					continue
				}
				if bestCycles < 0 || res.Cycles < bestCycles {
					bestCycles = res.Cycles
					best = cand
				}
			}
			part = best
		}
		tr, err := a.Transform(part)
		if err != nil {
			return nil, nil, err
		}
		r.psReport = psdswp.Analyze(tr)
		tr.Stats.ReplicableSCCs = r.psReport.ReplicableSCCs()
		r.regOwner = tr.RegOwner
		traces, err := r.execute(tr.Threads, p, tr.NumQueues, opts)
		return traces, tr.Stats, err
	case "doacross":
		fns, err := doacross.Transform(p.F, p.LoopHeader, threads)
		if err != nil {
			return nil, nil, err
		}
		traces, err := r.execute(fns, p, countQueues(fns), opts)
		return traces, nil, err
	}
	return nil, nil, fmt.Errorf("unknown scheme %q", scheme)
}

// exitCode maps a failure to the CLI's exit-code contract (see usage):
// distinct nonzero codes per error class so scripts and CI can branch on
// what went wrong without parsing stderr.
func exitCode(err error) int {
	var (
		de *rt.DeadlockError
		te *rt.TimeoutError
		me *validate.MismatchError
		sf *rt.StageFailure
	)
	switch {
	case errors.As(err, &de):
		return 2
	case errors.As(err, &te):
		return 3
	case errors.As(err, &me):
		return 4
	case errors.As(err, &sf):
		return 5
	}
	return 1
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dswpsim:", err)
	os.Exit(exitCode(err))
}
