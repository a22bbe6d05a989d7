package runtime

import (
	"math/bits"
	"sync"

	"dswp/internal/interp"
	"dswp/internal/obs"
)

// DefaultCheckpointEvery is the default checkpoint period in outer-loop
// iterations.
const DefaultCheckpointEvery = 64

// Checkpoint is the architectural live state of the pipeline at an
// aligned outer-loop iteration boundary: it is exactly the state a
// sequential execution of the original loop would have on entering
// iteration Iter+1 at the loop header, so `interp.Run(original,
// {StartBlock: header, RegFile: Regs, Mem: Mem})` finishes the loop with
// the correct final state.
//
// The boundary is a sound commit point because DSWP's in-loop flows are
// forward and same-iteration (backward or output dependences crossing
// partitions are rejected at split time) and initial/final flows are only
// active outside the loop — so when every stage has retired exactly the
// first Iter iterations, all queues are provably empty and shared memory
// equals the sequential image. Registers are merged per the ownership
// rule: each register's in-loop definition lives in exactly one thread.
//
// Mem and Deltas are borrowed from the run: both are overwritten by the
// next commit, so a caller that keeps a checkpoint past that must copy
// them. Regs is the commit's own.
type Checkpoint struct {
	// Iter is the number of completed outer-loop iterations.
	Iter int64
	// Mem is the run's retained checkpoint image: shared memory as of
	// this boundary, valid until the next commit.
	Mem *interp.Memory
	// Regs is the merged architectural register file of the original
	// function, indexed by register number.
	Regs []int64
	// Deltas are the words this epoch changed, in ascending address
	// order: every word that differs from the previous commit's image
	// (from the run's initial image for the first commit). Replaying the
	// deltas of every commit so far over the initial image rebuilds Mem.
	Deltas []Delta
}

// Delta is one memory word a checkpoint epoch changed.
type Delta struct {
	Addr int64
	Val  int64
}

// CheckpointSpec enables iteration-aligned checkpointing of a concurrent
// run. All stage threads park on an epoch barrier every Every outer-loop
// iterations; the last arriver commits the checkpoint (the epoch's dirty
// words applied to the retained image, plus the merged register file) and
// releases the pipeline.
type CheckpointSpec struct {
	// Every is the checkpoint period in outer-loop iterations
	// (<=0 = DefaultCheckpointEvery).
	Every int64
	// Header names the target loop's header block. Every thread function
	// keeps its copy of the header under the original name, so the name
	// anchors iteration counting to the same loop in every thread — the
	// main thread may contain other loops (setup code, inner loops) whose
	// back-edges must not advance the epoch. If any thread has no block
	// with this name (or Header is empty and some thread is loop-free),
	// checkpointing is disabled for the run rather than risking a
	// misaligned barrier.
	Header string
	// RegOwner maps each original-function register to the thread that
	// holds its authoritative value at iteration boundaries — the thread
	// containing the register's in-loop definition, or thread 0 for
	// registers only defined outside the loop (core.Transformed.RegOwner
	// computes this). Its length sizes Checkpoint.Regs.
	RegOwner []int
	// OnCommit receives each committed checkpoint while the pipeline is
	// paused at the boundary. It runs on a stage goroutine and must not
	// block for long. A panic in it fails the run with a *StageFailure.
	OnCommit func(Checkpoint)
}

func (s *CheckpointSpec) every() int64 {
	if s == nil || s.Every <= 0 {
		return DefaultCheckpointEvery
	}
	return s.Every
}

// pageShift sizes the dirty-tracking page: a store marks the page of
// 1<<pageShift words holding its address, and a commit diffs only the
// marked pages against the retained image.
const pageShift = 6

// ckptState is the engine's barrier: threads arrive at aligned iteration
// boundaries and park until the last arrival commits and releases them.
type ckptState struct {
	spec  *CheckpointSpec
	every int64

	// image is the retained checkpoint image: shared memory as of the
	// last commit, cloned once at run start. dirty[t] is thread t's
	// bitmap of pages it stored to since the last commit, one bit per
	// page; only thread t writes it, and only the committer reads and
	// clears it, while t is parked at the barrier. deltas is the last
	// commit's delta list, reused across commits.
	image  *interp.Memory
	dirty  [][]uint64
	deltas []Delta

	mu      sync.Mutex
	arrived int
	done    int // threads that exited (any reason) and left the barrier
	release chan struct{}
	commits int64
}

func newCkptState(spec *CheckpointSpec, mem *interp.Memory, threads int) *ckptState {
	c := &ckptState{spec: spec, every: spec.every(), image: mem.Clone(),
		dirty: make([][]uint64, threads), release: make(chan struct{})}
	pages := (mem.Size() + 1<<pageShift - 1) >> pageShift
	for t := range c.dirty {
		c.dirty[t] = make([]uint64, (pages+63)/64)
	}
	return c
}

// ckptArrive parks thread ti at the boundary after its iter-th completed
// outer iteration. The last live arriver commits (unless a stage already
// exited, in which case the boundary is no longer aligned across the
// pipeline) and releases everyone. Returns when released or canceled.
func (e *engine) ckptArrive(ti int, iter int64) {
	c := e.ckpt
	c.mu.Lock()
	c.arrived++
	if c.arrived >= len(e.threads)-c.done {
		e.lastArrive(ti, iter)
		return
	}
	ch := c.release
	c.mu.Unlock()

	e.setState(ti, stateBarrier)
	select {
	case <-ch:
		e.setState(ti, stateRunning)
	case <-e.ctx.Done():
	}
}

// lastArrive commits (when the boundary is pipeline-wide) and releases the
// barrier. The caller holds ckptState.mu; it is released on return, also
// when OnCommit panics, so the failing stage's ckptLeave can take it while
// the panic fails the run and its cancellation frees the waiters.
func (e *engine) lastArrive(ti int, iter int64) {
	c := e.ckpt
	defer c.mu.Unlock()
	if c.done == 0 {
		e.commitLocked(ti, iter)
	}
	c.arrived = 0
	close(c.release)
	c.release = make(chan struct{})
}

// ckptLeave removes an exiting thread from the barrier population. If the
// remaining arrivers were only waiting on this thread, they are released
// without a commit (a finished stage means the loop is draining and the
// boundary is no longer pipeline-wide).
func (e *engine) ckptLeave(ti int) {
	c := e.ckpt
	if c == nil {
		return
	}
	c.mu.Lock()
	c.done++
	if c.arrived > 0 && c.arrived >= len(e.threads)-c.done {
		c.arrived = 0
		ch := c.release
		c.release = make(chan struct{})
		c.mu.Unlock()
		close(ch)
		return
	}
	c.mu.Unlock()
}

// commitLocked builds and publishes the checkpoint; the caller holds
// ckptState.mu, and every other live thread is parked at the barrier, so
// reading their register files and dirty bitmaps and the shared image is
// safe (each waiter's last writes happen-before its barrier lock
// acquisition). The commit costs what the epoch wrote: it walks the union
// of the threads' dirty pages, emits each word that differs from the
// retained image as a delta, applies it, and clears the bitmaps.
func (e *engine) commitLocked(ti int, iter int64) {
	c := e.ckpt
	cur, img := e.mem.Words(), c.image.Words()
	c.deltas = c.deltas[:0]
	for w := range c.dirty[0] {
		var word uint64
		for _, d := range c.dirty {
			word |= d[w]
			d[w] = 0
		}
		for word != 0 {
			page := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			lo := page << pageShift
			hi := min(lo+1<<pageShift, len(cur))
			for a := lo; a < hi; a++ {
				if v := cur[a]; v != img[a] {
					img[a] = v
					c.deltas = append(c.deltas, Delta{Addr: int64(a), Val: v})
				}
			}
		}
	}
	cp := Checkpoint{Iter: iter, Mem: c.image, Regs: make([]int64, len(c.spec.RegOwner)),
		Deltas: c.deltas}
	for r := range cp.Regs {
		t := c.spec.RegOwner[r]
		if t < 0 || t >= len(e.threads) {
			t = 0
		}
		if regs := e.threads[t].regs; r < len(regs) {
			cp.Regs[r] = regs[r]
		}
	}
	c.commits++
	if e.rec != nil {
		e.rec.Record(obs.Event{Kind: obs.KCheckpoint, Thread: int32(ti), Queue: -1,
			When: e.now(), Arg: iter})
	}
	if c.spec.OnCommit != nil {
		c.spec.OnCommit(cp)
	}
}
