package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dswp/internal/queue"
)

// ErrResourceExhausted is returned when admitting a run would push the
// engine's in-flight memory estimate over Options.MaxInFlightBytes: the
// request is shed (like ErrOverloaded, it maps to 429) so that accepted
// requests keep their working sets resident instead of everybody paying
// for an over-committed heap.
var ErrResourceExhausted = errors.New("engine: in-flight memory budget exhausted, request shed")

// ErrReaped is returned for a run the hung-run reaper force-canceled
// after it exceeded Options.ReapAfter of wall-clock execution. The
// instance it was running on is quarantined, never reissued — a run that
// ignored its deadline cannot be trusted to have left the queues
// consistent.
var ErrReaped = errors.New("engine: run exceeded the hung-run bound and was reaped")

// RequestTooLargeError reports a single request whose estimated working
// set exceeds Options.MaxRequestBytes — unlike ErrResourceExhausted it
// can never succeed by waiting, so it maps to 413, not 429.
type RequestTooLargeError struct {
	Estimated int64
	Limit     int64
}

func (e *RequestTooLargeError) Error() string {
	return fmt.Sprintf("engine: request working set ~%d bytes exceeds the %d-byte per-request limit",
		e.Estimated, e.Limit)
}

// estimateBytes approximates the peak resident bytes one run pins: two
// memory images (the program's base image plus the checkpoint clone the
// supervisor snapshots), the synchronization-array backing stores as the
// runtime allocates them (Plan.QueueSize: packed queues scaled by their
// packet width, ring buffers rounded up to a power of two), a per-thread
// allowance for register files and interpreter state, and a fixed
// overhead for the job/trace/response plumbing. It is deliberately a
// slight over-estimate — admission control should saturate before the
// allocator does, not after. compile takes it once per pipeline, at the
// engine's queue geometry.
func estimateBytes(p *pipeline, kind queue.Kind, qcap int) int64 {
	const (
		fixed     = 64 << 10 // job, trace, response, goroutine stacks
		perThread = 32 << 10 // register file, iteration state, stack slack
	)
	est := int64(fixed)
	if p.prog != nil && p.prog.Mem != nil {
		est += p.prog.Mem.Size() * 8 * 2
	}
	if p.plan != nil {
		for q := 0; q < p.plan.NumQueues(); q++ {
			_, _, slots := p.plan.QueueSize(q, kind, qcap)
			est += int64(slots) * 8
		}
		est += int64(p.plan.NumThreads()) * perThread
	}
	return est
}

// governor is the engine's memory-accounting admission layer. It tracks
// the byte estimate of every in-flight run in Metrics.inflightBytes and
// refuses admission past the global budget. A nil-limit governor (both
// caps zero) still accounts, so /metrics reports inflight_bytes even
// when shedding is disabled.
type governor struct {
	maxInFlight int64 // 0 = no global cap
	maxRequest  int64 // 0 = no per-request cap
	met         *Metrics
}

func newGovernor(maxInFlight, maxRequest int64, met *Metrics) *governor {
	return &governor{maxInFlight: maxInFlight, maxRequest: maxRequest, met: met}
}

// admit reserves n estimated bytes, or explains why it will not.
func (g *governor) admit(n int64) error {
	if g.maxRequest > 0 && n > g.maxRequest {
		g.met.requestTooLarge.Add(1)
		return &RequestTooLargeError{Estimated: n, Limit: g.maxRequest}
	}
	for {
		cur := g.met.inflightBytes.Load()
		if g.maxInFlight > 0 && cur+n > g.maxInFlight {
			g.met.shedResource.Add(1)
			return fmt.Errorf("%w: %d in flight + %d requested > %d budget",
				ErrResourceExhausted, cur, n, g.maxInFlight)
		}
		if g.met.inflightBytes.CompareAndSwap(cur, cur+n) {
			g.met.admitBytes(cur + n)
			return nil
		}
	}
}

// release returns n bytes to the budget.
func (g *governor) release(n int64) {
	g.met.inflightBytes.Add(-n)
}

// reaper force-cancels runs that exceed a wall-clock bound. Deadlines
// already bound well-behaved runs through their contexts; the reaper is
// defense in depth for the run that stops consuming its context — a
// wedged stage, a pathological stall — so a hung instance costs one
// quarantined instance, not a worker forever.
type reaper struct {
	after time.Duration
	met   *Metrics

	mu    sync.Mutex
	seq   int64
	watch map[int64]*watchedRun

	stop chan struct{}
	done chan struct{}
}

type watchedRun struct {
	workload string
	started  time.Time
	cancel   func()
	reaped   *atomic.Bool
}

// newReaper starts the scan loop; nil when after is unset (disabled).
func newReaper(after time.Duration, met *Metrics) *reaper {
	if after <= 0 {
		return nil
	}
	r := &reaper{after: after, met: met, watch: make(map[int64]*watchedRun),
		stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r
}

// add registers a run; the returned id must be forgotten when it ends.
func (r *reaper) add(workload string, cancel func(), reaped *atomic.Bool) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.seq++
	id := r.seq
	r.watch[id] = &watchedRun{workload: workload, started: time.Now(),
		cancel: cancel, reaped: reaped}
	r.mu.Unlock()
	return id
}

func (r *reaper) forget(id int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.watch, id)
	r.mu.Unlock()
}

func (r *reaper) loop() {
	defer close(r.done)
	// Scan well inside the bound so a hung run overstays by at most
	// ~12.5%, without a busy loop at small bounds.
	tick := r.after / 8
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case now := <-t.C:
			r.mu.Lock()
			for id, w := range r.watch {
				if now.Sub(w.started) < r.after {
					continue
				}
				w.reaped.Store(true)
				w.cancel()
				delete(r.watch, id)
				r.met.reap()
			}
			r.mu.Unlock()
		}
	}
}

func (r *reaper) close() {
	if r == nil {
		return
	}
	close(r.stop)
	<-r.done
}
