package telemetry

import (
	"sync"
	"sync/atomic"
)

// Registry keeps per-workload serving series: cumulative counters the
// Prometheus exposition renders as labeled families, and a windowed
// per-second profile per workload, which /debug/vars serves through
// Profiles.
type Registry struct {
	windowSeconds int

	mu  sync.RWMutex
	wls map[string]*WorkloadStats
}

// WorkloadStats is one workload's cumulative serving series. Counter
// updates are atomic; the error-class map is small-cardinality and
// guarded by its own mutex off the success hot path.
type WorkloadStats struct {
	requests atomic.Int64
	errors   atomic.Int64
	degraded atomic.Int64
	occHW    atomic.Int64 // lifetime admission-queue occupancy high-water
	latency  SumHist      // success latency, microseconds

	clsMu   sync.Mutex
	byClass map[string]int64

	window *Window
}

// NewRegistry builds a registry whose per-workload windows retain
// windowSeconds slots (0 = DefaultWindowSeconds).
func NewRegistry(windowSeconds int) *Registry {
	if windowSeconds <= 0 {
		windowSeconds = DefaultWindowSeconds
	}
	return &Registry{windowSeconds: windowSeconds, wls: make(map[string]*WorkloadStats)}
}

// stats returns (creating on first sight) a workload's series.
func (r *Registry) stats(workload string) *WorkloadStats {
	r.mu.RLock()
	ws := r.wls[workload]
	r.mu.RUnlock()
	if ws != nil {
		return ws
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if ws = r.wls[workload]; ws == nil {
		ws = &WorkloadStats{window: NewWindow(r.windowSeconds)}
		r.wls[workload] = ws
	}
	return ws
}

// Observe records one finished request for a workload: its error class
// ("" = success), end-to-end latency in microseconds, admission-queue
// occupancy, and whether the breaker degraded it to sequential.
func (r *Registry) Observe(workload, class string, latUS, occupancy int64, degraded bool) {
	if r == nil {
		return
	}
	ws := r.stats(workload)
	ws.requests.Add(1)
	if degraded {
		ws.degraded.Add(1)
	}
	for {
		old := ws.occHW.Load()
		if occupancy <= old || ws.occHW.CompareAndSwap(old, occupancy) {
			break
		}
	}
	if class != "" {
		ws.errors.Add(1)
		ws.clsMu.Lock()
		if ws.byClass == nil {
			ws.byClass = make(map[string]int64, 4)
		}
		ws.byClass[class]++
		ws.clsMu.Unlock()
	} else {
		ws.latency.Add(latUS)
	}
	ws.window.Observe(class, latUS, occupancy)
}

// ObserveBreaker records a breaker state transition for a workload.
func (r *Registry) ObserveBreaker(workload string) {
	if r == nil {
		return
	}
	r.stats(workload).window.ObserveBreaker()
}

// Profiles returns every served workload's windowed profile, keyed by
// workload, with the per-second series included when includeSeries.
func (r *Registry) Profiles(includeSeries bool) map[string]WindowSnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.wls))
	for name := range r.wls {
		names = append(names, name)
	}
	r.mu.RUnlock()
	out := make(map[string]WindowSnapshot, len(names))
	for _, name := range names {
		r.mu.RLock()
		ws := r.wls[name]
		r.mu.RUnlock()
		if ws != nil {
			out[name] = ws.window.Snapshot(includeSeries)
		}
	}
	return out
}

// PromWorkload is one workload's cumulative series, snapshotted for the
// exposition encoder.
type PromWorkload struct {
	Workload string
	Requests int64
	Errors   int64
	Degraded int64
	OccHW    int64
	ByClass  map[string]int64
	Latency  HistSample
}

// PromSnapshot returns every workload's cumulative series, sorted by
// workload name for deterministic exposition output.
func (r *Registry) PromSnapshot() []PromWorkload {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	wls := make(map[string]*WorkloadStats, len(r.wls))
	for k, v := range r.wls {
		wls[k] = v
	}
	r.mu.RUnlock()
	out := make([]PromWorkload, 0, len(wls))
	for _, name := range sortedKeys(wls) {
		ws := wls[name]
		pw := PromWorkload{
			Workload: name,
			Requests: ws.requests.Load(),
			Errors:   ws.errors.Load(),
			Degraded: ws.degraded.Load(),
			OccHW:    ws.occHW.Load(),
			Latency:  ws.latency.Snapshot(L("workload", name)),
		}
		ws.clsMu.Lock()
		if len(ws.byClass) > 0 {
			pw.ByClass = make(map[string]int64, len(ws.byClass))
			for k, v := range ws.byClass {
				pw.ByClass[k] = v
			}
		}
		ws.clsMu.Unlock()
		out = append(out, pw)
	}
	return out
}
