package chaos

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dswp/internal/ckptstore"
	"dswp/internal/core"
	"dswp/internal/engine"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/profile"
	"dswp/internal/psdswp"
	"dswp/internal/queue"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/validate"
	"dswp/internal/workloads"
)

// Supervisor fault modes. Mid-run cancellation composes on top of any mode.
const (
	modeClean     = iota // RandomFaults timing perturbation only
	modePermanent        // queue error fault -> sequential resume
	modePanic            // stage panic (one replica, if replicated) -> sequential resume
	modeStarve           // forced stalls under a tiny attempt timeout
	modeDurable          // crash: the durable store is all that survives
	numModes
)

var modeNames = [numModes]string{"clean", "permanent", "panic", "starve", "durable"}

// target is a pipeline prepared for soaking.
type target struct {
	name     string // workload and transform, e.g. "wc w=3 packed rep=2"
	prog     *workloads.Program
	tr       *core.Transformed
	want     string // reference digest
	replicas []int  // replica thread indices; nil unless replicated
}

// supervisorDriver holds every target, by partition width (2 or 3).
type supervisorDriver struct{ targets [2][]*target }

// newSupervisorDriver transforms every built-in workload at widths 2 and
// 3, plain and flow-packed, and adds the width-2 and width-4 replicated
// pipelines of each transform psdswp.Analyze finds replicable.
func newSupervisorDriver() (*supervisorDriver, error) {
	d := &supervisorDriver{}
	for _, p := range validate.AllPrograms() {
		base, err := interp.Run(p.F, p.Options())
		if err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", p.Name, err)
		}
		prof, err := profile.Collect(p.F, p.Options())
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", p.Name, err)
		}
		want := digestOf(base)
		for w := 2; w <= 3; w++ {
			add := func(name string, tr *core.Transformed, replicas []int) {
				d.targets[w-2] = append(d.targets[w-2],
					&target{name: name, prog: p, tr: tr, want: want, replicas: replicas})
			}
			for _, packed := range []bool{false, true} {
				tr, err := core.Apply(p.F, p.LoopHeader, prof, core.Config{
					NumThreads: w, SkipProfitability: true, PackFlows: packed})
				if err != nil {
					continue // single-SCC workloads have nothing to pipeline
				}
				name := fmt.Sprintf("%s w=%d", p.Name, w)
				if packed {
					name += " packed"
				}
				add(name, tr, nil)
				if a := psdswp.Analyze(tr); a.Replicable() {
					for _, rw := range []int{2, 4} {
						if res, err := psdswp.Replicate(tr, a.Stage, rw); err == nil {
							add(fmt.Sprintf("%s rep=%d", name, rw), res.Tr, res.ReplicaThreads())
						}
					}
				}
			}
		}
	}
	if len(d.targets[0]) == 0 || len(d.targets[1]) == 0 {
		return nil, errors.New("chaos: no transformable workloads at widths 2 and 3")
	}
	return d, nil
}

// supervisorRun is one supervisor scenario: a target, a fault mode and a
// policy, all drawn from the scenario's stream.
type supervisorRun struct {
	tag         string
	tg          *target
	mode        int
	pol         supervisor.Policy
	cancelAfter time.Duration // mid-run cancel delay; <0 = none
	torn        bool          // durable: tear the stored entry before recovery
}

func (s *supervisorRun) String() string { return s.tag }

func (d *supervisorDriver) scenario(seed uint64, i int) scenario {
	rng := scenarioRNG(seed, i)
	pool := d.targets[rng.Index(2)]
	tg := pool[rng.Index(len(pool))]
	s := &supervisorRun{tg: tg, mode: rng.Index(numModes), cancelAfter: -1,
		torn: rng.Index(4) == 0}
	if rng.Index(4) == 0 {
		s.cancelAfter = time.Duration(rng.Index(2000)) * time.Microsecond
	}
	nq, nt := tg.tr.NumQueues, len(tg.tr.Threads)
	plan := rt.RandomFaults(rng.Next(), nt, nq)
	s.pol = supervisor.Policy{
		QueueCap:        []int{1, 2, 8, 32}[rng.Index(4)],
		Queue:           queue.Kind(rng.Index(2)),
		CheckpointEvery: []int64{4, 16, 64}[rng.Index(3)],
		AttemptTimeout:  10 * time.Second,
		Faults:          plan,
	}
	panicOne := func() string {
		t := rng.Index(nt)
		if tg.replicas != nil {
			t = tg.replicas[rng.Index(len(tg.replicas))]
		}
		at := int64(50 + rng.Index(2000))
		plan.Thread[t] = failpoint.Policy{Action: failpoint.ActPanic, Nth: at}
		return fmt.Sprintf("panic t%d@%d", t, at)
	}
	permanent := func() string {
		q, every := rng.Index(nq), int64(32+rng.Index(512))
		plan.Queue[q] = failpoint.Policy{Action: failpoint.ActError, Every: every}
		return fmt.Sprintf("permanent q%d/%d", q, every)
	}
	fault := "timing"
	switch s.mode {
	case modePermanent:
		fault = permanent()
	case modePanic:
		fault = panicOne()
	case modeStarve:
		// Stall one thread hard enough that the watchdog's wall-clock
		// bound fires, forcing the timeout -> resume path.
		t, every := rng.Index(nt), int64(64+rng.Index(192))
		plan.Thread[t] = failpoint.Policy{Action: failpoint.ActSleep, Every: every,
			Sleep: 2 * time.Millisecond}
		s.pol.AttemptTimeout = 50 * time.Millisecond
		s.pol.Poll = time.Millisecond
		fault = fmt.Sprintf("stall t%d/%d", t, every)
	case modeDurable:
		// Process-crash rehearsal: a panic or permanent fault kills the
		// attempt with sequential resume disabled, so the durable store
		// (made fresh per run) is the only survivor.
		if rng.Index(2) == 0 {
			fault = panicOne()
		} else {
			fault = permanent()
		}
		s.pol.DisableResume = true
		s.pol.StoreKey = fmt.Sprintf("durable.%d", i)
		s.pol.StoreMeta = []byte(tg.prog.Name)
		if s.torn {
			fault += " torn"
		}
	}
	cancel := "none"
	if s.cancelAfter >= 0 {
		cancel = s.cancelAfter.String()
	}
	s.tag = fmt.Sprintf("supervisor run=%d %s/%s queue=%s cap=%d every=%d cancel=%s fault=%s",
		i, tg.name, modeNames[s.mode], s.pol.Queue, s.pol.QueueCap, s.pol.CheckpointEvery,
		cancel, fault)
	return s
}

func (s *supervisorRun) run(ctx context.Context, rep *Report) {
	rep.ByMode[modeNames[s.mode]]++
	rep.ByQueue[s.pol.Queue.String()]++
	if s.tg.replicas != nil {
		rep.Replicated++
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.cancelAfter >= 0 {
		defer time.AfterFunc(s.cancelAfter, cancel).Stop()
	}
	pol := s.pol
	var store *ckptstore.MemStore
	if s.mode == modeDurable {
		store = ckptstore.NewMem()
		pol.Store = store
	}
	p := s.tg.prog
	pipe := supervisor.Pipeline{
		Threads: s.tg.tr.Threads, Original: p.F, LoopHeader: p.LoopHeader,
		RegOwner: s.tg.tr.RegOwner, Mem: p.Mem, Regs: p.Regs,
	}
	type result struct {
		res  *interp.Result
		srep *supervisor.Report
		err  error
	}
	out, hung := watched(ctx, func(ctx context.Context) result {
		res, srep, err := supervisor.Run(ctx, pipe, pol)
		return result{res, srep, err}
	})

	// A canceled scenario may end in any typed error: it either saw the
	// cancel or died on the injected failure first.
	canceled := s.cancelAfter >= 0 || ctx.Err() != nil
	o := outcome{hung: hung}
	if out.srep != nil && out.srep.Failure != nil {
		rep.ByClass[engine.ErrorClass(out.srep.Failure)]++
		o.recovered = true
	}
	errOK := canceled
	switch class := engine.ErrorClass(out.err); {
	case hung:
	case out.err == nil:
		o.digest = digestOf(out.res)
	case s.mode == modeDurable && class != "internal" && !(canceled && class == "deadline"):
		// The attempt crashed with resume disabled: play the restarted
		// process, which only a cancel may stop.
		res, err := s.recoverDurable(ctx, store, pipe)
		if err != nil {
			o = failure(err)
			errOK = canceled && o.class == "deadline"
			break
		}
		o = outcome{digest: digestOf(res), recovered: true}
	default:
		o = failure(out.err)
	}
	if rep.check(s.tag, s.tg.want, o, errOK) && o.recovered && s.tg.replicas != nil {
		rep.ReplicatedRecovered++
	}
}

// recoverDurable plays the restarted process after a durable-mode crash:
// read the committed entry back, rebuild its checkpoint against the
// pristine memory image, and take the supervisor's sequential resume from
// that cut. A quarter of recoveries first tear the entry: the store must
// then report ckptstore.ErrCorrupt, never a wrong checkpoint, and
// recovery starts from scratch, as it does when nothing was committed.
func (s *supervisorRun) recoverDurable(ctx context.Context, store *ckptstore.MemStore, pipe supervisor.Pipeline) (*interp.Result, error) {
	if s.torn {
		store.Corrupt(s.pol.StoreKey)
	}
	var cp *rt.Checkpoint
	e, err := store.Get(s.pol.StoreKey)
	switch {
	case err == nil:
		rc, err := e.Checkpoint(pipe.Mem)
		if err != nil {
			return nil, fmt.Errorf("rebuilding durable checkpoint: %w", err)
		}
		cp = &rc
	case errors.Is(err, ckptstore.ErrNotFound), errors.Is(err, ckptstore.ErrCorrupt) && s.torn:
	default:
		return nil, fmt.Errorf("durable store get (torn=%v): %w", s.torn, err)
	}
	return supervisor.Resume(ctx, pipe, cp, supervisor.Policy{})
}
