package supervisor_test

import (
	"context"
	"errors"
	"fmt"
	goruntime "runtime"
	"slices"
	"sync/atomic"
	"testing"

	"dswp/internal/ckptstore"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/ir"
	rt "dswp/internal/runtime"
	"dswp/internal/supervisor"
	"dswp/internal/validate"
	"dswp/internal/workloads"
)

// sizingStore is a MemStore that also totals the bytes each commit's
// state encodes to.
type sizingStore struct {
	*ckptstore.MemStore
	encoded int
}

func (s *sizingStore) Put(e *ckptstore.Entry) error {
	s.encoded += len(ckptstore.Encode(e))
	return s.MemStore.Put(e)
}

func (s *sizingStore) Append(key string, ep *ckptstore.Epoch) error {
	s.encoded += len(ckptstore.Encode(&ckptstore.Entry{Iter: ep.Iter, Regs: ep.Regs, Deltas: ep.Deltas}))
	return s.MemStore.Append(key, ep)
}

// TestCommitCostIsEpochSized runs the same loop over a 1k-word and a
// 1M-word image: the bytes allocated and encoded per commit must stay
// flat, since a commit costs what its epoch stored, not what the image
// holds. Allocation per commit is the difference between a run that
// commits every 4 iterations and one that commits every 64, so the
// per-run image copies cancel out.
func TestCommitCostIsEpochSized(t *testing.T) {
	p := workloads.ListTraversal(400)
	pipe, base := prepare(t, p, 2)
	if base == nil {
		t.Fatal("list traversal must be transformable")
	}
	if p.Mem.Size() > 1024 {
		t.Fatalf("image holds %d words, the small case needs <= 1024", p.Mem.Size())
	}
	run := func(mem *interp.Memory, every int64) (alloc int64, encoded int, commits int64) {
		pipe := pipe
		pipe.Mem = mem
		alloc = 1 << 62
		for try := 0; try < 3; try++ { // the least of three runs: other goroutines allocate too
			store := &sizingStore{MemStore: ckptstore.NewMem()}
			var ms0, ms1 goruntime.MemStats
			goruntime.ReadMemStats(&ms0)
			res, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
				QueueCap: 2, CheckpointEvery: every, Store: store, StoreKey: "k"})
			goruntime.ReadMemStats(&ms1)
			if err != nil || rep.Failure != nil {
				t.Fatalf("every=%d: %v (attempt %v)", every, err, rep.Failure)
			}
			if rep.DurableCommits != rep.Checkpoints || rep.Checkpoints == 0 {
				t.Fatalf("every=%d: %d of %d commits durable", every, rep.DurableCommits, rep.Checkpoints)
			}
			if !slices.Equal(res.Mem.Words()[:base.Mem.Size()], base.Mem.Words()) {
				t.Fatalf("every=%d: result diverges from the sequential image", every)
			}
			alloc = min(alloc, int64(ms1.TotalAlloc-ms0.TotalAlloc))
			encoded, commits = store.encoded, rep.Checkpoints
		}
		return alloc, encoded, commits
	}
	perCommit := func(words int64) (alloc, encoded float64) {
		mem := interp.NewMemory(words)
		copy(mem.Words(), p.Mem.Words())
		a4, e4, c4 := run(mem, 4)
		a64, _, c64 := run(mem, 64)
		return float64(a4-a64) / float64(c4-c64), float64(e4) / float64(c4)
	}
	smallAlloc, smallEnc := perCommit(1 << 10)
	bigAlloc, bigEnc := perCommit(1 << 20)
	t.Logf("per commit: 1k words %.0f B allocated, %.1f B encoded; 1M words %.0f B allocated, %.1f B encoded",
		smallAlloc, smallEnc, bigAlloc, bigEnc)
	if bigAlloc > 2*max(smallAlloc, 0)+16<<10 {
		t.Errorf("a commit allocates %.0f B over a 1M-word image but %.0f B over 1k words", bigAlloc, smallAlloc)
	}
	if bigEnc > smallEnc+2 {
		t.Errorf("a commit encodes %.1f B over a 1M-word image but %.1f B over 1k words", bigEnc, smallEnc)
	}
}

// epochStore is a MemStore that rebuilds every commit from the records
// it receives, over its own copy of the initial image, and checks each
// against the reference commit at the same index.
type epochStore struct {
	*ckptstore.MemStore
	t    *testing.T
	init *interp.Memory
	refs []rt.Checkpoint // the reference commits, each with its own image
	img  *interp.Memory  // the chain's image so far
	last int64           // the last commit's iteration
	n    int
}

func (s *epochStore) Put(e *ckptstore.Entry) error {
	s.img = s.init.Clone()
	s.check(e.Iter, e.Regs, e.Deltas)
	return s.MemStore.Put(e)
}

func (s *epochStore) Append(key string, ep *ckptstore.Epoch) error {
	if ep.Prev != s.last {
		s.t.Errorf("epoch at iteration %d links to %d, previous commit %d", ep.Iter, ep.Prev, s.last)
	}
	s.check(ep.Iter, ep.Regs, ep.Deltas)
	return s.MemStore.Append(key, ep)
}

// check applies one commit's deltas to the chain's image and compares the
// commit with the reference.
func (s *epochStore) check(iter int64, regs []int64, deltas []ckptstore.Delta) {
	for _, d := range deltas {
		s.img.Set(d.Addr, d.Val)
	}
	if s.n >= len(s.refs) {
		s.t.Errorf("commit %d at iteration %d: the reference run committed %d times", s.n, iter, len(s.refs))
	} else if ref := s.refs[s.n]; iter != ref.Iter || !slices.Equal(regs, ref.Regs) {
		s.t.Errorf("commit %d at iteration %d holds registers %v, reference at iteration %d %v",
			s.n, iter, regs, ref.Iter, ref.Regs)
	} else if d := s.img.Diff(ref.Mem); d != -1 {
		s.t.Errorf("commit %d at iteration %d: memory differs from the reference at word %d", s.n, iter, d)
	}
	s.last = iter
	s.n++
}

// TestResumeFromEveryCommit checks every commit of a supervised run of
// every suite loop, at a period of 256 iterations. The reference is the
// original loop run as a one-thread pipeline under the same checkpoint
// period, so its commits are states of the sequential execution, with
// every store marked by the one thread: each pipelined commit, rebuilt
// from the records the store received, must equal the reference commit
// at the same index in iteration, registers and memory. A commit that
// missed a word some stage stored fails here. The last commit and the
// store's cumulative entry are resumed on the interpreter and must
// reproduce the reference StateDigest; a word the commits never carry
// (a store no thread marks) fails there.
func TestResumeFromEveryCommit(t *testing.T) {
	const every = 256
	var total atomic.Int64
	t.Run("suite", func(t *testing.T) {
		for _, p := range validate.AllPrograms() {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				pipe, base := prepare(t, p, 2)
				if base == nil {
					t.Skip("not pipelinable")
				}
				if pipe.Mem == nil {
					pipe.Mem = interp.MemoryFor(p.F)
				}
				want := workloads.StateDigest(base)
				var refs []rt.Checkpoint
				ref, err := rt.Run([]*ir.Function{pipe.Original}, rt.Options{Mem: pipe.Mem, Regs: pipe.Regs,
					Checkpoint: &rt.CheckpointSpec{Every: every, Header: pipe.LoopHeader,
						RegOwner: make([]int, len(pipe.RegOwner)),
						OnCommit: func(cp rt.Checkpoint) {
							refs = append(refs, rt.Checkpoint{Iter: cp.Iter, Regs: cp.Regs, Mem: cp.Mem.Clone()})
						}}})
				if err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if got := workloads.StateDigest(ref); got != want {
					t.Fatalf("reference run digest %016x, want %016x", got, want)
				}
				store := &epochStore{MemStore: ckptstore.NewMem(), t: t, init: pipe.Mem, refs: refs}
				res, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
					CheckpointEvery: every, Store: store, StoreKey: p.Name})
				if err != nil || rep.Failure != nil {
					t.Fatalf("%v (attempt %v)", err, rep.Failure)
				}
				if got := workloads.StateDigest(res); got != want {
					t.Fatalf("pipelined digest %016x, want %016x", got, want)
				}
				if store.n != len(refs) || int64(store.n) != rep.Checkpoints || rep.DurableCommits != rep.Checkpoints {
					t.Fatalf("%d commits stored, %d in the reference, %d durable of %d committed",
						store.n, len(refs), rep.DurableCommits, rep.Checkpoints)
				}
				if store.n == 0 {
					return
				}
				e, err := store.Get(p.Name)
				if err != nil {
					t.Fatal(err)
				}
				stored, err := e.Checkpoint(pipe.Mem)
				if err != nil {
					t.Fatal(err)
				}
				for _, cp := range []rt.Checkpoint{refs[len(refs)-1], stored} {
					rres, err := interp.Run(p.F, interp.Options{
						StartBlock: p.LoopHeader, RegFile: cp.Regs, Mem: cp.Mem})
					if err != nil {
						t.Fatalf("resume from iteration %d: %v", cp.Iter, err)
					}
					if got := workloads.StateDigest(rres); got != want {
						t.Fatalf("resume from iteration %d: digest %016x, want %016x", cp.Iter, got, want)
					}
				}
				total.Add(int64(store.n))
			})
		}
	})
	if total.Load() == 0 {
		t.Fatalf("no suite loop reached a commit at a period of %d iterations", every)
	}
}

// TestCommitPanicDropsLatch panics inside a commit's OnCommit, after the
// runtime has applied that epoch to the retained image. The latch must not
// pair the new image with the previous commit's registers: the resume
// comes from the store's last durable epoch (from scratch when the first
// commit panics) and is exact either way.
func TestCommitPanicDropsLatch(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	p := workloads.ListTraversal(500)
	for _, tc := range []struct {
		nth      int
		wantIter int64
	}{{1, -1}, {3, 16}} {
		pipe, base := prepare(t, p, 2)
		if base == nil {
			t.Fatal("list traversal must be transformable")
		}
		if err := failpoint.Enable("supervisor/ckpt/commit", fmt.Sprintf("panic(boom):nth(%d)", tc.nth)); err != nil {
			t.Fatal(err)
		}
		res, rep, err := supervisor.Run(context.Background(), pipe, supervisor.Policy{
			QueueCap: 2, CheckpointEvery: 8, Store: ckptstore.NewMem(), StoreKey: "list.r1"})
		failpoint.Reset()
		if err != nil {
			t.Fatalf("nth=%d: %v", tc.nth, err)
		}
		var sf *rt.StageFailure
		if !errors.As(rep.Failure, &sf) {
			t.Fatalf("nth=%d: attempt failure %v, want a *StageFailure from the commit", tc.nth, rep.Failure)
		}
		if !rep.Resumed || rep.ResumeIter != tc.wantIter {
			t.Fatalf("nth=%d: resumed=%v from iteration %d, want %d", tc.nth, rep.Resumed, rep.ResumeIter, tc.wantIter)
		}
		if cerr := validate.Compare("commit-panic", base, res); cerr != nil {
			t.Fatalf("nth=%d: %v", tc.nth, cerr)
		}
	}
}
