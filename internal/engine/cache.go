package engine

import (
	"container/list"
	"context"
	"sync"

	"dswp/internal/core"
	"dswp/internal/profile"
	rt "dswp/internal/runtime"
	"dswp/internal/workloads"
)

// pipeline is one compiled artifact: the workload instance it was built
// from, the transformation result, the runtime's static execution plan,
// and a warm-instance pool. tr == nil means the transform was not
// applicable (single SCC / unprofitable) and the entry serves runs
// sequentially. Everything here is either immutable after compile or
// internally synchronized (the pool), so any number of concurrent runs
// may share one pipeline.
type pipeline struct {
	key           string
	prog          *workloads.Program
	tr            *core.Transformed
	plan          *rt.Plan
	pool          *pool
	compileMicros int64
	// est is one run's working-set estimate (estimateBytes) at the
	// engine's queue geometry; labels are the per-thread span names
	// (stageLabels).
	est    int64
	labels []string

	// Cache bookkeeping, guarded by the owning cache's mutex.
	refs int
	elem *list.Element
}

// cacheEntry is a cache slot. ready closes when the single-flight compile
// finishes; until then p and err are not readable.
type cacheEntry struct {
	key   string
	ready chan struct{}
	p     *pipeline
	err   error
}

// cache is the compiled-pipeline cache: bounded, LRU-evicted, ref-counted
// (an entry is never evicted while a run holds it), with single-flight
// compile deduplication — N concurrent requests for one key cost exactly
// one core.Apply.
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	// lru orders *resident* pipelines by recency; front = most recent.
	// Entries still compiling are not in the list yet.
	lru list.List
	met *Metrics
}

func newCache(cap int, met *Metrics) *cache {
	return &cache{cap: cap, entries: map[string]*cacheEntry{}, met: met}
}

// acquire returns the pipeline for key, compiling it with compile() when
// absent. The first requester compiles; concurrent requesters for the
// same key block on the same entry (or their context) and share the one
// result. hit is false for the compiling requester and for anyone who
// waited on that compile — their latency includes it. The caller must
// release() the returned pipeline when its run finishes; failed compiles
// are not cached, so a later request retries.
func (c *cache) acquire(ctx context.Context, key string, compile func() (*pipeline, error)) (p *pipeline, hit bool, err error) {
	c.mu.Lock()
	if ent, ok := c.entries[key]; ok {
		select {
		case <-ent.ready:
			// Resident (or failed) entry: hand it out immediately.
			if ent.err != nil {
				c.mu.Unlock()
				return nil, false, ent.err
			}
			ent.p.refs++
			c.lru.MoveToFront(ent.p.elem)
			c.met.cacheHits.Add(1)
			c.mu.Unlock()
			return ent.p, true, nil
		default:
			// Compile in flight: wait outside the lock.
			c.mu.Unlock()
			select {
			case <-ent.ready:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if ent.err != nil {
				return nil, false, ent.err
			}
			c.mu.Lock()
			// The entry may have been evicted or replaced while we
			// waited; pin whatever the compile produced regardless —
			// eviction only forgets the key, it cannot invalidate a
			// pipeline immutably compiled for it.
			ent.p.refs++
			if ent.p.elem != nil {
				c.lru.MoveToFront(ent.p.elem)
			}
			c.met.cacheHits.Add(1)
			c.mu.Unlock()
			return ent.p, true, nil
		}
	}

	ent := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = ent
	c.met.cacheMisses.Add(1)
	c.mu.Unlock()

	p, err = compile()
	c.mu.Lock()
	ent.p, ent.err = p, err
	close(ent.ready)
	if err != nil {
		delete(c.entries, key) // do not cache failures
		c.mu.Unlock()
		return nil, false, err
	}
	p.refs = 1
	p.elem = c.lru.PushFront(p)
	c.evictLocked()
	c.mu.Unlock()
	return p, false, nil
}

// release drops one reference. Unreferenced entries stay resident for
// future hits until LRU pressure evicts them.
func (c *cache) release(p *pipeline) {
	c.mu.Lock()
	p.refs--
	c.evictLocked()
	c.mu.Unlock()
}

// evictLocked trims the cache to cap, oldest-first, skipping entries a
// run still references. Called with c.mu held.
func (c *cache) evictLocked() {
	over := c.lru.Len() - c.cap
	for e := c.lru.Back(); e != nil && over > 0; {
		prev := e.Prev()
		p := e.Value.(*pipeline)
		if p.refs <= 0 {
			c.lru.Remove(e)
			p.elem = nil
			delete(c.entries, p.key)
			c.met.cacheEvicts.Add(1)
			over--
		}
		e = prev
	}
}

// len reports resident entries (test hook).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// profiles caches each program's execution profile by workload ident,
// the part of a cache key that names the program and its parameters
// (identOf). A profile depends only on the program and its inputs, never
// on the transform config the rest of the key carries, and workload
// builds are deterministic, so every config of one workload shares one
// profiling run: a miss on a new config pays the transform and the plan
// build, not another interpreter run of the whole program. Bounded like
// the pipeline cache; a full cache drops an arbitrary entry.
type profiles struct {
	mu   sync.Mutex
	cap  int
	runs map[string]profileRun
}

// profileRun is one profiling run's result, shared read-only by every
// compile of its workload.
type profileRun struct {
	counts []int64
	steps  int64
}

func newProfiles(cap int) *profiles {
	return &profiles{cap: cap, runs: map[string]profileRun{}}
}

// collect returns prog's profile, running the interpreter only when no
// build of the same workload ident has been profiled.
func (c *profiles) collect(ident string, prog *workloads.Program) (*profile.Profile, error) {
	c.mu.Lock()
	r, ok := c.runs[ident]
	c.mu.Unlock()
	if ok {
		return &profile.Profile{Fn: prog.F, InstrCount: r.counts, TotalSteps: r.steps}, nil
	}
	prof, err := profile.Collect(prog.F, prog.Options())
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.runs) >= c.cap {
		for k := range c.runs {
			delete(c.runs, k)
			break
		}
	}
	c.runs[ident] = profileRun{counts: prof.InstrCount, steps: prof.TotalSteps}
	c.mu.Unlock()
	return prof, nil
}
