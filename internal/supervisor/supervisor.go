// Package supervisor is the fault-tolerant execution layer over the
// concurrent DSWP pipeline runtime: it runs a transformed loop under a
// policy (deadline, per-attempt timeout, checkpoint period)
// and guarantees that the caller sees either the bit-identical sequential
// result or a typed error — never a hang, never a wrong answer.
//
// The recovery strategy follows the paper's correctness argument in
// reverse: because DSWP's in-loop flows are forward and same-iteration,
// every aligned outer-iteration boundary is a consistent cut (all queues
// empty, shared memory equal to the sequential image, registers merged per
// ownership). The runtime commits checkpoints at those cuts; when the
// concurrent attempt fails — a stage panic, an unrecoverable injected
// fault, a watchdog deadlock or timeout — the supervisor abandons the
// pipeline and resumes the *original* untransformed loop sequentially from
// the last committed checkpoint. Sequential resume trades the pipeline
// speedup for certainty: it cannot deadlock on queues, cannot lose
// synchronization, and needs no inter-thread state beyond the checkpoint.
//
// Cancellation is cooperative and total: the caller's context threads
// through every stage goroutine, every blocking queue operation, injected
// sleeps, checkpoint barriers, and the sequential resume itself.
package supervisor

import (
	"context"
	"errors"
	"sync"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/obs"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
)

// Failpoint sites on the supervisor's durability path. A triggered
// supervisor/ckpt/commit surfaces exactly like a store failure — the
// commit is counted in Report.StoreErrors and the run is unaffected. A
// triggered supervisor/resume/start fails Resume before it executes; the
// failed resume is the run's error, never retried.
var (
	fpCommit = failpoint.New("supervisor/ckpt/commit")
	fpResume = failpoint.New("supervisor/resume/start")
)

// Pipeline is what the supervisor executes: the DSWP-transformed stage
// functions plus everything needed to fall back to sequential execution.
// core.Transformed carries all of it (Threads, Original, RegOwner); the
// loop header name and initial state come from the workload.
type Pipeline struct {
	// Threads are the stage functions (Threads[0] is the main thread).
	Threads []*ir.Function
	// Original is the untransformed function, used for sequential resume.
	Original *ir.Function
	// LoopHeader names the DSWP'd loop's header block — the checkpoint
	// barrier anchor and the sequential-resume entry point.
	LoopHeader string
	// RegOwner is core.Transformed.RegOwner: which thread owns each
	// original register at iteration boundaries. nil disables
	// checkpointing (resume restarts from scratch).
	RegOwner []int
	// Mem is the initial memory image (nil = zeroed, sized for Original).
	Mem *interp.Memory
	// Regs are thread 0's live-in registers.
	Regs map[ir.Reg]int64
}

// Policy bounds a supervised execution.
type Policy struct {
	// Deadline bounds the whole supervised execution, concurrent attempt
	// plus any sequential resume (0 = none). Exceeding it surfaces as an
	// error satisfying errors.Is(err, context.DeadlineExceeded).
	Deadline time.Duration
	// AttemptTimeout bounds the concurrent attempt's wall clock
	// (0 = runtime default 30s); the watchdog converts overruns into
	// *runtime.TimeoutError, which the supervisor recovers from.
	AttemptTimeout time.Duration
	// CheckpointEvery is the checkpoint period in outer-loop iterations
	// (0 = runtime.DefaultCheckpointEvery).
	CheckpointEvery int64
	// DisableResume turns off sequential resume: the concurrent attempt's
	// failure is returned as-is. Checkpoints are still committed.
	DisableResume bool
	// MaxSteps bounds each attempt's retired instructions (0 = default).
	MaxSteps int64
	// QueueCap is the synchronization-array queue capacity (0 = default).
	QueueCap int
	// Queue selects the communication substrate for the concurrent
	// attempt (queue.KindChannel or queue.KindRing); see runtime.Options.
	Queue queue.Kind
	// Poll is the watchdog sampling interval (0 = default).
	Poll time.Duration
	// Faults is the injected fault plan for the concurrent attempt.
	Faults *rt.FaultPlan
	// Recorder receives instrumentation events from the concurrent
	// attempt and the supervisor's own checkpoint/resume markers.
	Recorder obs.Recorder
	// RecordTrace enables per-thread event recording on the attempt and
	// on any sequential resume.
	RecordTrace bool
	// Plan supplies the pipeline's precomputed static execution plan
	// (runtime.NewPlan over Pipeline.Threads), skipping per-attempt
	// analysis. The serving engine caches one per compiled pipeline.
	Plan *rt.Plan
	// Instance supplies warm per-attempt state from a pool
	// (runtime.Plan.NewInstance with matching queue kind and capacity).
	// Incompatible with Faults; see runtime.Options.Instance.
	Instance *rt.Instance
	// Store, when non-nil, receives every committed checkpoint under
	// StoreKey, appended to the key's log as the epoch's deltas (the
	// run's first commit starts a new log with Put), so recovery can
	// outlive this Run call (a process restart). Store
	// errors never fail the run — they are counted in Report.StoreErrors
	// and the in-memory latch keeps working. The supervisor never deletes
	// entries; the caller owns the key's lifecycle.
	Store ckptstore.Store
	// StoreKey names the durable entry. Required when Store is set.
	StoreKey string
	// StoreMeta is an opaque blob persisted with each entry (the engine
	// stores the originating request), making entries self-describing.
	StoreMeta []byte
}

// Report describes how a supervised execution went.
type Report struct {
	// Failure is the concurrent attempt's typed error (nil = the attempt
	// completed cleanly and no recovery was needed). It is retained even
	// when recovery succeeds, so callers can see what they survived.
	Failure error
	// Resumed is true when the result came from sequential resume.
	Resumed bool
	// ResumeIter is the iteration count of the checkpoint the resume
	// started from; -1 means no checkpoint was available and the resume
	// restarted from scratch. Meaningless unless Resumed.
	ResumeIter int64
	// Checkpoints counts committed checkpoints.
	Checkpoints int64
	// Canceled is true when the run ended because the caller's context
	// was canceled or the policy deadline expired.
	Canceled bool
	// DurableCommits counts checkpoints successfully written to
	// Policy.Store (0 when no store is configured).
	DurableCommits int64
	// StoreErrors counts durable commits that failed; the in-memory
	// latch still advanced, so the run itself is unaffected.
	StoreErrors int64
	// Elapsed is total supervised wall-clock time.
	Elapsed time.Duration
}

// Run executes p under policy pol. On success the returned result is
// bit-identical to sequential execution of p.Original (the chaos harness
// and FuzzSupervised assert exactly that). On failure the error is typed:
// *runtime.StageFailure, *runtime.DeadlockError, *runtime.TimeoutError,
// *runtime.QueueFaultError, *runtime.StepLimitError, *runtime.CanceledError,
// or a context error from the resume path. The report is never nil.
func Run(ctx context.Context, p Pipeline, pol Policy) (*interp.Result, *Report, error) {
	start := time.Now()
	rep := &Report{ResumeIter: -1}
	defer func() { rep.Elapsed = time.Since(start) }()
	if ctx == nil {
		ctx = context.Background()
	}
	if pol.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.Deadline)
		defer cancel()
	}

	// Latch the most recent committed checkpoint. OnCommit runs on a stage
	// goroutine while every other thread is parked at the barrier; the
	// mutex orders the latch against the resume path's read below (which
	// happens after RunCtx returns, so no commit is in flight by then).
	// The latch's Mem is the run's retained image, which every commit
	// overwrites before calling OnCommit.
	var (
		mu   sync.Mutex
		last *rt.Checkpoint
		// prev is the previous commit's iteration and logged the last one
		// the store accepted (0 = none yet). While they agree, a commit's
		// deltas extend the store's chain; after a failed write the next
		// commit restarts the log from a full diff of the image.
		prev, logged int64
	)
	// record writes commit cp to the store: its own deltas appended to the
	// chain when the store holds the previous commit, or else a new log
	// through Put. The run's first commit's deltas are already cumulative;
	// after a failed write, the new log holds every word that differs from
	// the initial image.
	record := func(cp rt.Checkpoint) error {
		if logged != 0 && logged == prev {
			return pol.Store.Append(pol.StoreKey, &ckptstore.Epoch{Iter: cp.Iter, Prev: logged,
				Regs: cp.Regs, Deltas: cp.Deltas})
		}
		e := &ckptstore.Entry{Key: pol.StoreKey, Meta: pol.StoreMeta, Iter: cp.Iter,
			Regs: cp.Regs, BaseLen: cp.Mem.Size(), Deltas: cp.Deltas}
		if prev != 0 {
			base := p.Mem
			if base == nil {
				base = interp.NewMemory(cp.Mem.Size())
			}
			var err error
			if e, err = ckptstore.NewEntry(pol.StoreKey, pol.StoreMeta, cp, base); err != nil {
				return err
			}
		}
		return pol.Store.Put(e)
	}
	var spec *rt.CheckpointSpec
	if len(p.RegOwner) > 0 && p.LoopHeader != "" {
		spec = &rt.CheckpointSpec{
			Every:    pol.CheckpointEvery,
			Header:   p.LoopHeader,
			RegOwner: p.RegOwner,
			OnCommit: func(cp rt.Checkpoint) {
				mu.Lock()
				defer mu.Unlock()
				// The image already holds this commit, so the previous
				// latch no longer matches it. Until the latch is set
				// again below, a panic leaves none: the resume then
				// reads the store or starts from scratch.
				last = nil
				rep.Checkpoints++
				if pol.Store != nil && pol.StoreKey != "" {
					// The pipeline is paused at the barrier, so the
					// store's cost lands between iterations, not inside
					// one; a store failure degrades durability, never
					// correctness.
					commitStart := time.Now()
					err := fpCommit.Fail()
					if err == nil {
						err = record(cp)
					}
					if err == nil {
						logged = cp.Iter
						rep.DurableCommits++
						if pol.Recorder != nil {
							// The stamp comes from whichever thread drove
							// this epoch's commit — during a faulted
							// teardown other threads may already be
							// emitting their exit events — so it is a
							// run-level event (Thread -1), which
							// recorders keep off their per-thread rings.
							pol.Recorder.Record(obs.Event{Kind: obs.KDurableCommit,
								Thread: -1, Queue: -1, When: int64(time.Since(start)),
								Arg: time.Since(commitStart).Microseconds()})
						}
					} else {
						logged = 0
						rep.StoreErrors++
					}
				}
				prev = cp.Iter
				last = &cp
			},
		}
	}

	res, err := rt.RunCtx(ctx, p.Threads, rt.Options{
		QueueCap:    pol.QueueCap,
		Queue:       pol.Queue,
		Mem:         p.Mem,
		Regs:        p.Regs,
		MaxSteps:    pol.MaxSteps,
		Timeout:     pol.AttemptTimeout,
		Poll:        pol.Poll,
		Faults:      pol.Faults,
		Checkpoint:  spec,
		Recorder:    pol.Recorder,
		RecordTrace: pol.RecordTrace,
		Plan:        pol.Plan,
		Instance:    pol.Instance,
	})
	if err == nil {
		return res, rep, nil
	}
	rep.Failure = err

	// Cancellation and deadline expiry are not failures to recover from —
	// the caller asked the work to stop, and a resume would keep running.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		rep.Canceled = true
		return nil, rep, err
	}
	if pol.DisableResume {
		return nil, rep, err
	}

	mu.Lock()
	cp := last
	mu.Unlock()

	// No in-memory checkpoint (e.g. the attempt died before its first
	// barrier, or this Run was handed a key from a previous attempt):
	// seed the resume from the durable store. Corrupt or missing entries
	// fall through to a from-scratch resume — never an error.
	if cp == nil && pol.Store != nil && pol.StoreKey != "" {
		if e, err := pol.Store.Get(pol.StoreKey); err == nil {
			b := p.Mem
			if b == nil {
				b = interp.NewMemory(e.BaseLen)
			}
			if rc, err := e.Checkpoint(b); err == nil {
				cp = &rc
			}
		}
	}

	// Sequential resume from the last consistent cut (or from scratch
	// when no checkpoint committed), under the caller's context and
	// policy deadline.
	rep.Resumed = true
	if cp != nil {
		rep.ResumeIter = cp.Iter
	}
	if pol.Recorder != nil {
		pol.Recorder.Record(obs.Event{Kind: obs.KResume, Thread: 0, Queue: -1,
			When: int64(time.Since(start)), Arg: rep.ResumeIter})
	}
	rres, rerr := Resume(ctx, p, cp, pol)
	if rerr != nil {
		if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
			rep.Canceled = true
		}
		return nil, rep, rerr
	}
	return rres, rep, nil
}

// Resume runs p's original loop sequentially to completion: from the
// consistent cut cp when it is non-nil, from p's initial state when it is
// nil. It is the one sequential-recovery step — Run takes it after a
// failed attempt, and a restarted process takes it from a checkpoint
// rebuilt out of the durable store. Sequential execution cannot deadlock
// on queues or lose synchronization, and needs no inter-thread state
// beyond the checkpoint. The resume gets a fresh pol.MaxSteps budget (an
// attempt's spend is sunk) and records per-thread traces when
// pol.RecordTrace is set. It emits no obs events: Run's KResume is the
// resume's marker on pol.Recorder.
func Resume(ctx context.Context, p Pipeline, cp *rt.Checkpoint, pol Policy) (*interp.Result, error) {
	if err := fpResume.Fail(); err != nil {
		return nil, err
	}
	opts := interp.Options{Ctx: ctx, MaxSteps: pol.MaxSteps, RecordTrace: pol.RecordTrace}
	if cp != nil {
		opts.StartBlock = p.LoopHeader
		opts.RegFile = cp.Regs
		opts.Mem = cp.Mem
	} else {
		opts.Mem = p.Mem
		opts.Regs = p.Regs
	}
	return interp.Run(p.Original, opts)
}
