package engine

import (
	"sync"
	"time"
)

// breaker is the per-workload circuit breaker degrading pipelined serving
// to the original sequential loop — the paper's cheap fallback, promoted
// to a service-level state. Each workload runs one of three states:
//
//	closed    pipelined serving; consecutive failures are counted
//	open      K consecutive failures tripped it; every request runs the
//	          sequential loop (correct results, no speedup) until the
//	          cooldown elapses
//	half-open one probe request re-tests the pipeline; success closes
//	          the breaker, failure re-opens it for another cooldown
//
// Only attempt-level *pipelined* outcomes feed the state machine: a
// sequential resume that saves the request does not absolve the pipeline,
// and degraded sequential runs say nothing about it.
type breaker struct {
	threshold int // consecutive failures that trip; <0 disables
	cooldown  time.Duration
	met       *Metrics
	now       func() time.Time // injectable clock for tests

	mu     sync.Mutex
	states map[string]*breakerState
}

type breakerState struct {
	consecFails int
	open        bool
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
	trips       int64
}

// BreakerInfo is one workload's breaker state as /workloads reports it.
type BreakerInfo struct {
	// State is "closed", "open", or "half-open".
	State string `json:"state"`
	// ConsecutiveFailures counts pipelined failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// Trips counts closed->open transitions over the engine's lifetime.
	Trips int64 `json:"trips,omitempty"`
}

func newBreaker(threshold int, cooldown time.Duration, met *Metrics) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, met: met,
		now: time.Now, states: make(map[string]*breakerState)}
}

// allow decides how to serve workload wl: pipelined=false means degrade
// to sequential; probe=true marks this request as the half-open test
// whose outcome must be reported back via record.
func (b *breaker) allow(wl string) (pipelined, probe bool) {
	if b.threshold < 0 {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[wl]
	if st == nil || !st.open {
		return true, false
	}
	if !st.probing && b.now().Sub(st.openedAt) >= b.cooldown {
		st.probing = true
		return true, true
	}
	return false, false
}

// record feeds a pipelined attempt's outcome back. ok is attempt-level:
// true only when the pipelined run itself succeeded.
func (b *breaker) record(wl string, ok, probe bool) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[wl]
	if st == nil {
		st = &breakerState{}
		b.states[wl] = st
	}
	if ok {
		if st.open {
			b.met.breakerOpen.Add(-1)
			b.met.breakerTransition(wl)
		}
		st.open = false
		st.probing = false
		st.consecFails = 0
		return
	}
	if probe {
		// The half-open probe failed: stay open for another cooldown.
		st.openedAt = b.now()
		st.probing = false
		b.met.breakerTransition(wl)
		return
	}
	st.consecFails++
	if !st.open && st.consecFails >= b.threshold {
		st.open = true
		st.openedAt = b.now()
		st.trips++
		b.met.breakerTrips.Add(1)
		b.met.breakerOpen.Add(1)
		b.met.breakerTransition(wl)
	}
}

// info snapshots one workload's breaker state; nil when the workload has
// never recorded a pipelined outcome (implicitly closed).
func (b *breaker) info(wl string) *BreakerInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[wl]
	if st == nil {
		return nil
	}
	bi := &BreakerInfo{State: "closed",
		ConsecutiveFailures: st.consecFails, Trips: st.trips}
	if st.open {
		bi.State = "open"
		if st.probing || b.now().Sub(st.openedAt) >= b.cooldown {
			bi.State = "half-open"
		}
	}
	return bi
}
