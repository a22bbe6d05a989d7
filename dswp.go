// Package dswp is a full implementation of Decoupled Software Pipelining
// (Ottoni, Rangan, Stoler, August — MICRO 2005): an automatic,
// non-speculative compiler transformation that extracts pipeline
// parallelism from ordinary loops by partitioning the loop's dependence
// graph SCCs across threads that communicate through hardware queues.
//
// The package is a facade over the implementation:
//
//   - an IR with a builder and a textual format (internal/ir),
//   - control-flow and dependence analyses, including the paper's
//     loop-iteration and conditional control dependences (internal/cfg,
//     internal/dep),
//   - the DSWP algorithm itself — SCC partitioning, code splitting, flow
//     insertion (internal/core),
//   - PS-DSWP parallel-stage replication: replicable-stage analysis and
//     the fan-out/fan-in queue rewrite (internal/psdswp),
//   - a DOACROSS baseline (internal/doacross),
//   - a functional interpreter and a cycle-level dual-core machine model
//     with a synchronization array (internal/interp, internal/sim),
//   - the paper's benchmark workloads and every evaluation experiment
//     (internal/workloads, internal/exp).
//
// Quick start:
//
//	p := dswp.ListTraversal(2000)             // a pointer-chasing loop
//	tr, err := dswp.Pipeline(p, dswp.Config{})
//	base, _ := dswp.RunBaseline(p, dswp.FullWidth())
//	piped, _ := dswp.RunThreads(tr, p, dswp.FullWidth())
//	fmt.Printf("speedup %.2fx\n", float64(base.Cycles)/float64(piped.Cycles))
package dswp

import (
	"context"
	"fmt"
	"net/http"

	"dswp/internal/chaos"
	"dswp/internal/ckptstore"
	"dswp/internal/core"
	"dswp/internal/doacross"
	"dswp/internal/engine"
	"dswp/internal/failpoint"
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

// Re-exported types: the facade aliases the implementation types so
// callers outside this module can name them.
type (
	// Function is an IR function; Builder constructs one; Reg is a
	// virtual register.
	Function = ir.Function
	Builder  = ir.Builder
	Instr    = ir.Instr
	Reg      = ir.Reg
	Op       = ir.Op

	// Program is a runnable workload: IR plus its memory image.
	Program = workloads.Program

	// Memory is the word-addressed memory image programs run against.
	Memory = interp.Memory

	// Config tunes the DSWP transformation (thread count, profitability
	// margin, dependence options).
	Config = core.Config

	// Transformed is the result of pipelining a loop: thread functions
	// plus flow metadata.
	Transformed = core.Transformed

	// Partitioning is a valid DAG_SCC partitioning.
	Partitioning = core.Partitioning

	// ReplicationReport is the PS-DSWP replicability analysis of a
	// transformed pipeline (per-stage decisions with rejection reasons,
	// chosen stage and width); ReplicationResult is a replicated
	// pipeline.
	ReplicationReport = psdswp.Report
	ReplicationResult = psdswp.Result

	// MachineConfig describes the simulated CMP; MachineResult is one
	// timing run.
	MachineConfig = sim.Config
	MachineResult = sim.Result

	// RuntimeOptions configures the goroutine-backed concurrent runtime
	// (queue capacity, watchdog bounds, fault injection, communication
	// substrate).
	RuntimeOptions = rt.Options
	// QueueKind selects the communication substrate backing the
	// synchronization-array queues (RuntimeOptions.Queue, Policy.Queue):
	// Go channels or the lock-free SPSC ring buffer.
	QueueKind = queue.Kind
	// FaultPlan describes deterministic fault injection for a concurrent
	// run; ThreadStall, QueueFaultSpec, and FaultClass are its building
	// blocks; FallbackReport says whether a run degraded to sequential.
	FaultPlan      = rt.FaultPlan
	ThreadStall    = rt.ThreadStall
	QueueFaultSpec = rt.QueueFaultSpec
	FaultClass     = rt.FaultClass
	FallbackReport = rt.FallbackReport
	// DeadlockError and TimeoutError are the watchdog's structured
	// failures; StageFailure is a captured stage panic; QueueFaultError is
	// an unrecovered injected queue fault; CanceledError reports a
	// cooperatively canceled run (match all with errors.As).
	DeadlockError   = rt.DeadlockError
	TimeoutError    = rt.TimeoutError
	StageFailure    = rt.StageFailure
	QueueFaultError = rt.QueueFaultError
	CanceledError   = rt.CanceledError
	// RetryPolicy bounds in-place retry of transient queue faults;
	// Checkpoint is a committed consistent cut of a concurrent run.
	RetryPolicy = rt.RetryPolicy
	Checkpoint  = rt.Checkpoint

	// Policy bounds a supervised execution (deadline, retries, checkpoint
	// period); SupervisorReport says how the run went (what failed,
	// whether and from which iteration it resumed).
	Policy           = supervisor.Policy
	SupervisorReport = supervisor.Report

	// ChaosOptions and ChaosReport configure and report the chaos soak
	// (RunChaos).
	ChaosOptions = chaos.Options
	ChaosReport  = chaos.Report

	// ValidateOptions and ValidateReport configure and report the
	// differential validation harness.
	ValidateOptions = validate.Options
	ValidateReport  = validate.Report

	// Observability: Recorder receives instrumentation events from either
	// engine; Metrics aggregates them into per-stage/per-queue counters;
	// Trace ring-buffers them for Chrome-trace export; PassStats is the
	// transformation's compile-time self-report (also on
	// Transformed.Stats).
	Recorder  = obs.Recorder
	Metrics   = obs.Metrics
	Trace     = obs.Trace
	PassStats = obs.PassStats

	// Serving engine (internal/engine, cmd/dswpd): Engine amortizes
	// compilation across requests (compiled-pipeline cache, warm
	// instance pools, bounded admission); EngineRequest/EngineResponse
	// are the POST /run wire shapes; EngineMetrics counts the serving
	// path and EngineSnapshot is its race-safe JSON export;
	// UnknownWorkloadError is the typed bad-request failure.
	Engine               = engine.Engine
	EngineOptions        = engine.Options
	EngineRequest        = engine.Request
	EngineResponse       = engine.Response
	EngineMetrics        = engine.Metrics
	EngineSnapshot       = engine.EngineSnapshot
	UnknownWorkloadError = engine.UnknownWorkloadError

	// Durable serving (internal/ckptstore, engine recovery): a
	// CheckpointStore persists committed checkpoints (Policy.Store,
	// EngineOptions.Store) — MemCheckpointStore survives retries within a
	// process, FileCheckpointStore survives the process itself;
	// CheckpointEntry is one crash-safe encoded checkpoint.
	// FailedRequestError is the engine's exhausted-retry-budget failure
	// (errors.As sees through its chain); RecoveryStats and RecoveredRun
	// report the engine's startup crash-recovery pass; WorkloadInfo and
	// EngineBreakerInfo are the /workloads serving-status shapes.
	CheckpointStore     = ckptstore.Store
	CheckpointEntry     = ckptstore.Entry
	MemCheckpointStore  = ckptstore.MemStore
	FileCheckpointStore = ckptstore.FileStore
	FailedRequestError  = engine.FailedRequestError
	RecoveryStats       = engine.RecoveryStats
	RecoveredRun        = engine.RecoveredRun
	WorkloadInfo        = engine.WorkloadInfo
	EngineBreakerInfo   = engine.BreakerInfo

	// Robustness (internal/failpoint, engine governance): FailpointSite
	// is a named deterministic fault-injection site (zero-cost while the
	// registry is disarmed); RequestTooLargeError is the per-request
	// memory-cap rejection.
	FailpointSite        = failpoint.Site
	FailpointPolicy      = failpoint.Policy
	RequestTooLargeError = engine.RequestTooLargeError
)

// Sentinel errors from the transformation (Figure 3 steps 3 and 6).
var (
	ErrSingleSCC    = core.ErrSingleSCC
	ErrUnprofitable = core.ErrUnprofitable
)

// Typed admission errors from the serving engine: a full pending queue
// sheds with ErrOverloaded (HTTP 429), a draining engine rejects with
// ErrDraining (HTTP 503).
var (
	ErrOverloaded = engine.ErrOverloaded
	ErrDraining   = engine.ErrDraining
)

// Robustness sentinels: ErrResourceExhausted sheds a request over the
// engine's in-flight memory budget (HTTP 429), ErrReaped marks a run the
// hung-run reaper force-canceled (HTTP 504), ErrDurabilityLost marks a
// checkpoint key whose file-store writes are failing (serving continues,
// durability degraded), ErrFailpointInjected is the root of every
// deliberately injected fault.
var (
	ErrResourceExhausted = engine.ErrResourceExhausted
	ErrReaped            = engine.ErrReaped
	ErrDurabilityLost    = ckptstore.ErrDurabilityLost
	ErrFailpointInjected = failpoint.ErrInjected
)

// Fault classes for FaultPlan.QueueFault: transient faults recover under
// retry, permanent faults force a checkpoint resume.
const (
	FaultTransient = rt.FaultTransient
	FaultPermanent = rt.FaultPermanent
)

// Communication substrates for RuntimeOptions.Queue and Policy.Queue.
const (
	// QueueChannel backs each queue with a buffered Go channel (default).
	QueueChannel = queue.KindChannel
	// QueueRing backs each single-producer/single-consumer queue with the
	// cache-line-padded lock-free ring buffer; queues with multiple static
	// endpoints silently keep the channel implementation.
	QueueRing = queue.KindRing
)

// ParseQueueKind parses a substrate name ("channel" or "ring"; "" means
// channel), for CLI flags.
func ParseQueueKind(s string) (QueueKind, error) { return queue.ParseKind(s) }

// NewBuilder starts a new IR function.
func NewBuilder(name string) *Builder { return ir.NewBuilder(name) }

// Parse reads a function in the textual IR format.
func Parse(src string) (*Function, error) { return ir.Parse(src) }

// NewMemory allocates the memory image a function's objects require.
func NewMemory(f *Function) *Memory { return interp.MemoryFor(f) }

// NewMetrics sizes a Metrics recorder for threads stages and queues queues
// (use len(tr.Threads) and tr.NumQueues).
func NewMetrics(threads, queues int) *Metrics { return obs.NewMetrics(threads, queues) }

// NewTrace sizes an event-trace recorder (capPerThread 0 = default ring
// size); export with Trace.WriteChrome.
func NewTrace(threads, capPerThread int) *Trace { return obs.NewTrace(threads, capPerThread) }

// MultiRecorder fans events out to several recorders (e.g. Metrics plus
// Trace).
func MultiRecorder(rs ...Recorder) Recorder { return obs.Multi(rs...) }

// AnalyzeStats reports the compile-time analysis statistics for the
// program's target loop (dependence graph, DAG_SCC) without transforming
// it — available even where DSWP bails out (e.g. a single-SCC loop).
func AnalyzeStats(p *Program, config Config) (*PassStats, error) {
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		return nil, fmt.Errorf("dswp: profiling: %w", err)
	}
	a, err := core.Analyze(p.F, p.LoopHeader, prof, config)
	if err != nil {
		return nil, err
	}
	return a.Stats(), nil
}

// Layout returns the base word-address of each declared memory object.
func Layout(f *Function) []int64 { return interp.Layout(f) }

// FullWidth and HalfWidth are the paper's machine configurations.
func FullWidth() MachineConfig { return sim.FullWidth() }
func HalfWidth() MachineConfig { return sim.HalfWidth() }

// Pipeline applies automatic DSWP (Figure 3) to the program's target loop:
// profile, build the dependence graph, partition the DAG_SCC with the
// load-balance heuristic, split the code, and insert flows.
func Pipeline(p *Program, config Config) (*Transformed, error) {
	prof, err := profile.Collect(p.F, p.Options())
	if err != nil {
		return nil, fmt.Errorf("dswp: profiling: %w", err)
	}
	return core.Apply(p.F, p.LoopHeader, prof, config)
}

// Doacross applies the DOACROSS baseline transformation across n threads.
func Doacross(p *Program, n int) ([]*Function, error) {
	return doacross.Transform(p.F, p.LoopHeader, n)
}

// AnalyzeReplication runs the PS-DSWP replicability analysis on a
// transformed pipeline: which stages could run as W parallel replicas,
// and why the others cannot (DESIGN.md §15).
func AnalyzeReplication(tr *Transformed) *ReplicationReport { return psdswp.Analyze(tr) }

// Replicate rewrites a transformed pipeline so stage runs as width
// parallel replicas behind a round-robin fan-out/fan-in queue topology.
// The replicated pipeline is bit-identical to the original; use
// AnalyzeReplication to find a legal stage and a profile-balanced width.
func Replicate(tr *Transformed, stage, width int) (*ReplicationResult, error) {
	return psdswp.Replicate(tr, stage, width)
}

// RunBaseline executes the program single-threaded on the machine model
// and returns its timing.
func RunBaseline(p *Program, m MachineConfig) (*MachineResult, error) {
	opts := p.Options()
	opts.RecordTrace = true
	res, err := interp.Run(p.F, opts)
	if err != nil {
		return nil, err
	}
	return sim.Run(m, res.Threads)
}

// RunThreads executes the pipelined threads, validates they compute the
// same memory image and live-outs as the original program, and returns
// their timing.
func RunThreads(tr *Transformed, p *Program, m MachineConfig) (*MachineResult, error) {
	return RunFunctions(tr.Threads, p, m)
}

// RunFunctions is RunThreads for an explicit thread list (e.g. DOACROSS
// output).
func RunFunctions(threads []*Function, p *Program, m MachineConfig) (*MachineResult, error) {
	opts := p.Options()
	opts.RecordTrace = true
	multi, err := interp.RunThreads(threads, opts)
	if err != nil {
		return nil, err
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		return nil, err
	}
	if d := base.Mem.Diff(multi.Mem); d != -1 {
		return nil, fmt.Errorf("dswp: transformed code diverges from original at memory word %d", d)
	}
	for r, v := range base.LiveOuts {
		if multi.LiveOuts[r] != v {
			return nil, fmt.Errorf("dswp: live-out %s differs (%d vs %d)", r, v, multi.LiveOuts[r])
		}
	}
	return sim.Run(m, multi.Threads)
}

// RunConcurrent executes the pipelined threads under the goroutine-backed
// concurrent runtime — real threads, bounded channel queues, watchdog
// deadlock detection — validates the result against sequential execution
// of the original program, and returns the timing. On runtime failure it
// degrades gracefully: the sequential execution of the original loop is
// timed instead and the returned FallbackReport carries the cause
// (typically a *DeadlockError or *TimeoutError).
//
// A zero opts.QueueCap inherits the machine configuration's QueueSize, so
// the functional queues match the simulated synchronization array.
func RunConcurrent(tr *Transformed, p *Program, m MachineConfig, opts RuntimeOptions) (*MachineResult, FallbackReport, error) {
	opts.Regs = p.Regs
	opts.Mem = p.Mem
	opts.RecordTrace = true
	if opts.QueueCap == 0 {
		opts.QueueCap = m.QueueSize
	}
	res, report, err := rt.RunWithFallback(tr.Threads, p.F, opts)
	if err != nil {
		return nil, report, err
	}
	base, err := interp.Run(p.F, p.Options())
	if err != nil {
		return nil, report, err
	}
	if d := base.Mem.Diff(res.Mem); d != -1 {
		return nil, report, fmt.Errorf("dswp: concurrent execution diverges from original at memory word %d", d)
	}
	for r, v := range base.LiveOuts {
		if res.LiveOuts[r] != v {
			return nil, report, fmt.Errorf("dswp: live-out %s differs (%d vs %d)", r, v, res.LiveOuts[r])
		}
	}
	t, err := sim.Run(m, res.Threads)
	return t, report, err
}

// RandomFaults derives a reproducible fault-injection plan for tr from a
// seed: per-queue delays, forced thread stalls, and artificially tiny
// queue capacities.
func RandomFaults(seed uint64, tr *Transformed) *FaultPlan {
	return rt.RandomFaults(seed, len(tr.Threads), tr.NumQueues)
}

// ExecResult is the functional outcome of a supervised execution: the
// final memory image, per-thread traces, and thread 0's live-outs.
type ExecResult = interp.Result

// RunSupervised executes the pipelined threads under the fault-tolerant
// supervisor: the caller's context cancels cooperatively, stage panics are
// captured as *StageFailure, transient injected queue faults retry in
// place under pol.Retry, and on any unrecoverable failure the original
// loop is resumed sequentially from the last committed checkpoint. The
// returned result is bit-identical to sequential execution of p.F, or the
// error is typed — never a hang, never a wrong answer.
func RunSupervised(ctx context.Context, tr *Transformed, p *Program, pol Policy) (*ExecResult, *SupervisorReport, error) {
	return supervisor.Run(ctx, supervisor.Pipeline{
		Threads:    tr.Threads,
		Original:   p.F,
		LoopHeader: p.LoopHeader,
		RegOwner:   tr.RegOwner,
		Mem:        p.Mem,
		Regs:       p.Regs,
	}, pol)
}

// RunChaos executes the seed-reproducible chaos soak (cmd/dswpchaos)
// with the named driver: "supervisor" soaks supervised pipeline runs
// under queue faults, panics, stalls, cancellation and crash recovery;
// "service" soaks live engines under failpoint schedules. Every check
// must end in the bit-identical sequential state or a typed error; ctx
// bounds the soak, and the report's OK method says whether the contract
// held.
func RunChaos(ctx context.Context, driver string, opts ChaosOptions) *ChaosReport {
	return chaos.Soak(ctx, driver, opts)
}

// EnableFailpoint arms a named fault-injection site with a textual spec —
// "error(ENOSPC):prob(0.3,42)", "panic(boom):nth(5)", "sleep(2ms)" —
// and DisableFailpoints disarms everything and zeroes trigger counts.
// While no site is armed the whole framework costs one atomic load per
// site visit. FailpointSites lists every registered site;
// FailpointTriggers returns nonzero per-site hit counts (also exported
// on /metrics as dswp_failpoint_triggers_total).
func EnableFailpoint(name, spec string) error { return failpoint.Enable(name, spec) }

// DisableFailpoints disarms every failpoint and clears trigger counts.
func DisableFailpoints() { failpoint.Reset() }

// FailpointSites lists every failpoint site registered in the process.
func FailpointSites() []string { return failpoint.Sites() }

// FailpointTriggers reports per-site injection counts (nonzero only).
func FailpointTriggers() map[string]int64 { return failpoint.Triggers() }

// Validate runs the differential validation harness on one program:
// interpreter and concurrent-runtime execution across queue-capacity
// sweeps plus randomized fault/schedule runs, all diffed against
// sequential execution.
func Validate(p *Program, opts ValidateOptions) *ValidateReport {
	return validate.Program(p, opts)
}

// ValidateAll validates every built-in workload.
func ValidateAll(opts ValidateOptions) []*ValidateReport {
	return validate.Suite(opts)
}

// NewEngine starts a pipeline-as-a-service engine: a compiled-pipeline
// cache with single-flight deduplication, warm instance pools, and a
// bounded worker pool over a bounded pending queue. Serve requests with
// Engine.Run, export counters with Engine.Metrics().Snapshot(), and
// stop with Engine.Shutdown (graceful drain under the context's
// deadline).
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// NewServerMux builds the dswpd HTTP surface (POST /run, GET /metrics,
// /healthz, /workloads) over an engine, stdlib net/http only.
func NewServerMux(e *Engine) *http.ServeMux { return engine.NewMux(e) }

// NewMemCheckpointStore builds an in-memory checkpoint store: durable
// across engine retries within a process, gone with the process. Entries
// round-trip the binary codec on every Put/Get, so corruption detection
// behaves exactly like the file-backed store.
func NewMemCheckpointStore() *MemCheckpointStore { return ckptstore.NewMem() }

// OpenFileCheckpointStore opens (creating if needed) a file-backed
// checkpoint store in dir: one CRC-guarded binary file per key, written
// via temp file + fsync + atomic rename so a crash can tear at most the
// in-progress commit — never a previously durable one. Corrupt or torn
// entries found at open are counted and garbage-collected. dswpd's
// -ckpt-dir flag is this store; Engine.Recover finishes what it left.
func OpenFileCheckpointStore(dir string) (*FileCheckpointStore, error) {
	return ckptstore.OpenFile(dir)
}

// ServableWorkloads lists every workload name the engine accepts: the
// parametric list kernels plus the Table 1 suite and §5 case studies.
func ServableWorkloads() []string { return engine.Workloads() }

// Built-in workloads: the paper's pedagogy kernels and Table 1 suite.

// ListTraversal builds the Figure 1 pointer-chasing loop over n nodes.
func ListTraversal(n int64) *Program { return workloads.ListTraversal(n) }

// ListOfLists builds the Figure 2 running example.
func ListOfLists(outer, inner int64) *Program { return workloads.ListOfLists(outer, inner) }

// Workloads returns the Table 1 benchmark suite builders by name.
func Workloads() map[string]func() *Program {
	out := map[string]func() *Program{}
	for _, wb := range workloads.Table1Suite() {
		out[wb.Name] = wb.Build
	}
	for _, wb := range workloads.CaseStudies() {
		out[wb.Name] = wb.Build
	}
	for _, wb := range workloads.ReplicationSuite() {
		out[wb.Name] = wb.Build
	}
	return out
}
