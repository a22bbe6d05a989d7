package engine

import (
	"sync"

	"dswp/internal/queue"
	rt "dswp/internal/runtime"
)

// pool is a per-pipeline free list of warm runtime.Instance state —
// queues, register files, iteration counters — so steady-state serving
// reuses allocations instead of rebuilding them every run. Instances are
// exclusive while checked out; release() resets and *verifies* the
// returned state, dropping anything that fails verification rather than
// poisoning a future run (the reset-and-verify contract
// TestInstanceReuseMatchesFresh pins at the runtime layer).
//
// Quarantine: an instance whose run panicked (*runtime.StageFailure) is
// released as poisoned and never re-enters the free list — a panic can
// die mid-operation on a queue or register file, and Reset cannot prove
// such state consistent. Verify failures (e.g. after a mid-run cancel
// left queue residue) quarantine the same way. Both are counted in
// Metrics.poolQuarantined; admission is structural — release is the only
// writer of the free list, and both quarantine paths return before the
// append — so a poisoned instance cannot be reissued.
type pool struct {
	plan *rt.Plan
	kind queue.Kind
	qcap int
	met  *Metrics

	mu   sync.Mutex
	free []*rt.Instance
}

func newPool(plan *rt.Plan, kind queue.Kind, qcap, size int, met *Metrics) *pool {
	return &pool{plan: plan, kind: kind, qcap: qcap, met: met,
		free: make([]*rt.Instance, 0, size)}
}

// get pops a warm instance, or returns nil when the pool is empty.
func (p *pool) get() *rt.Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		inst := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return inst
	}
	return nil
}

// make allocates a fresh instance with the pool's geometry; it will join
// the free list when its run returns it.
func (p *pool) make() *rt.Instance {
	p.met.poolMakes.Add(1)
	return p.plan.NewInstance(p.kind, p.qcap)
}

// release returns an instance after a run. Poisoned instances (the run
// panicked) are quarantined unconditionally. Otherwise the instance is
// reset to pristine state and verified; verification failure (a canceled
// run can leave state only reallocation clears) also quarantines, and a
// full pool drops the instance as ordinary overflow.
func (p *pool) release(inst *rt.Instance, poisoned bool) {
	if poisoned {
		p.met.poolQuarantined.Add(1)
		return
	}
	inst.Reset()
	if err := inst.Verify(); err != nil {
		p.met.poolQuarantined.Add(1)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) >= cap(p.free) {
		p.met.poolDrops.Add(1)
		return
	}
	p.free = append(p.free, inst)
}
