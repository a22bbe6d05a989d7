package engine

import (
	"sort"

	"dswp/internal/failpoint"
)

// The engine's failpoint sites, one per service-layer decision point a
// chaos schedule may want to perturb. All disarmed in production (one
// atomic load each, see internal/failpoint); the chaos soak's service
// driver (internal/chaos) arms them by name.
var (
	// engine/admission/enqueue fails a request at admission, after the
	// draining check and workload resolution but before it is queued.
	fpAdmit = failpoint.New("engine/admission/enqueue")
	// engine/cache/compile fails a cold compile; under the cache's
	// single-flight this fans one injected error out to every waiter.
	fpCompile = failpoint.New("engine/cache/compile")
	// engine/pool/acquire perturbs warm-instance acquisition: an error
	// action forces the cold (fresh-allocation) path, a sleep action
	// delays it — both must be invisible in results.
	fpPool = failpoint.New("engine/pool/acquire")
	// engine/http/read-body fails /run body handling before the decode,
	// the shape of a connection error mid-request.
	fpReadBody = failpoint.New("engine/http/read-body")
	// engine/http/write-response aborts the connection before the
	// success response is written — the client sees a reset after the
	// work was done.
	fpWriteResp = failpoint.New("engine/http/write-response")
)

// DegradedSubsystems lists serving subsystems currently in a degraded
// state: "checkpoint-store" while any key's durable commits are disabled
// (the store keeps serving from the memory path), and "breaker:<wl>" for
// each workload whose circuit breaker is open (served sequentially).
// Empty means fully healthy; /healthz reports the list either way.
func (e *Engine) DegradedSubsystems() []string {
	var out []string
	if dd, ok := e.store.(interface{ DurabilityDegraded() bool }); ok && dd.DurabilityDegraded() {
		out = append(out, "checkpoint-store")
	}
	for _, wl := range e.breaker.openWorkloads() {
		out = append(out, "breaker:"+wl)
	}
	sort.Strings(out)
	return out
}

// openWorkloads lists workloads whose breaker is currently open.
func (b *breaker) openWorkloads() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []string
	for wl, st := range b.states {
		if st.open {
			out = append(out, wl)
		}
	}
	return out
}
