package telemetry

import (
	"sort"
	"sync"
	"time"

	"dswp/internal/obs"
)

// DefaultWindowSeconds is the time-series retention: ~5 minutes of
// per-second slots.
const DefaultWindowSeconds = 300

// Window is a fixed-size ring of per-second aggregation slots. Observe
// is O(1) and allocation-free in steady state; memory is bounded by the
// slot count regardless of traffic or uptime. Slots are lazily reset
// when their second comes around again, so an idle window costs nothing.
type Window struct {
	mu    sync.Mutex
	slots []slot
	now   func() time.Time // injectable clock for tests
}

// slot aggregates one wall-clock second.
type slot struct {
	sec       int64 // unix second this slot currently holds; 0 = empty
	requests  int64 // completed + failed requests observed
	errors    int64
	byClass   map[string]int64
	lat       obs.Hist // end-to-end latency, microseconds (successes)
	occHW     int64    // admission-queue occupancy high-water
	breakerTr int64    // breaker state transitions observed
	bytesHW   int64    // in-flight working-set bytes high-water
	reaped    int64    // hung runs force-canceled by the reaper
}

// NewWindow builds a window retaining seconds slots (0 =
// DefaultWindowSeconds).
func NewWindow(seconds int) *Window {
	if seconds <= 0 {
		seconds = DefaultWindowSeconds
	}
	return &Window{slots: make([]slot, seconds), now: time.Now}
}

// slotFor returns the live slot for the current second, resetting a
// stale one in place. Callers hold w.mu.
func (w *Window) slotFor() *slot {
	sec := w.now().Unix()
	s := &w.slots[sec%int64(len(w.slots))]
	if s.sec != sec {
		s.sec = sec
		s.requests, s.errors, s.occHW, s.breakerTr = 0, 0, 0, 0
		s.bytesHW, s.reaped = 0, 0
		for k := range s.byClass {
			delete(s.byClass, k)
		}
		s.lat = obs.Hist{}
	}
	return s
}

// Observe records one finished request: its error class ("" = success),
// end-to-end latency in microseconds, and the admission-queue occupancy
// it saw.
func (w *Window) Observe(class string, latUS, occupancy int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	s := w.slotFor()
	s.requests++
	if class != "" {
		s.errors++
		if s.byClass == nil {
			s.byClass = make(map[string]int64, 4)
		}
		s.byClass[class]++
	} else {
		// Latency percentiles track successful requests; error latencies
		// are dominated by deadlines and retries and would drown them.
		s.lat.Add(latUS)
	}
	if occupancy > s.occHW {
		s.occHW = occupancy
	}
	w.mu.Unlock()
}

// ObserveBreaker records one breaker state transition.
func (w *Window) ObserveBreaker() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.slotFor().breakerTr++
	w.mu.Unlock()
}

// ObserveBytes records the in-flight working-set byte total after an
// admission; slots keep the per-second high-water.
func (w *Window) ObserveBytes(inflight int64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	s := w.slotFor()
	if inflight > s.bytesHW {
		s.bytesHW = inflight
	}
	w.mu.Unlock()
}

// ObserveReap records one hung run force-canceled by the reaper.
func (w *Window) ObserveReap() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.slotFor().reaped++
	w.mu.Unlock()
}

// SecondPoint is one second's aggregate, oldest first in Series.
type SecondPoint struct {
	Unix      int64            `json:"unix"`
	Requests  int64            `json:"requests"`
	Errors    int64            `json:"errors"`
	ByClass   map[string]int64 `json:"by_class,omitempty"`
	P50US     int64            `json:"p50_us"`
	P99US     int64            `json:"p99_us"`
	OccHW     int64            `json:"occupancy_hw"`
	BreakerTr int64            `json:"breaker_transitions,omitempty"`
	BytesHW   int64            `json:"inflight_bytes_hw,omitempty"`
	Reaped    int64            `json:"reaped,omitempty"`
}

// WindowSnapshot is the /debug/vars shape: headline rates over standard
// horizons plus the raw per-second series for anything that wants to
// re-aggregate (dashboards).
type WindowSnapshot struct {
	Seconds int `json:"seconds"`
	// Rates are requests per second averaged over the trailing horizon
	// (requests here include errors).
	Rate1s  float64 `json:"rate_1s"`
	Rate10s float64 `json:"rate_10s"`
	Rate60s float64 `json:"rate_60s"`
	// ErrorRate60s is errors/requests over the trailing 60s (0 when no
	// requests); ErrorsByClass60s breaks the numerator down.
	ErrorRate60s     float64          `json:"error_rate_60s"`
	ErrorsByClass60s map[string]int64 `json:"errors_by_class_60s,omitempty"`
	// P50US60s/P99US60s aggregate success latency over the trailing 60s.
	P50US60s int64 `json:"p50_us_60s"`
	P99US60s int64 `json:"p99_us_60s"`
	// OccupancyHW60s is the max admission-queue occupancy seen in 60s.
	OccupancyHW60s int64 `json:"occupancy_hw_60s"`
	// BreakerTransitions60s counts breaker state changes in 60s.
	BreakerTransitions60s int64 `json:"breaker_transitions_60s"`
	// InFlightBytesHW60s is the max in-flight working-set byte estimate
	// seen in 60s; Reaped60s counts reaper kills in the same horizon.
	InFlightBytesHW60s int64 `json:"inflight_bytes_hw_60s,omitempty"`
	Reaped60s          int64 `json:"reaped_60s,omitempty"`
	// Series is the full retained per-second history, oldest first,
	// empty seconds omitted.
	Series []SecondPoint `json:"series,omitempty"`
}

// Snapshot aggregates the retained slots. includeSeries controls whether
// the full per-second series rides along (the /debug/vars default) or
// only the headlines (cheap polling).
func (w *Window) Snapshot(includeSeries bool) WindowSnapshot {
	snap := WindowSnapshot{}
	if w == nil {
		return snap
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	snap.Seconds = len(w.slots)
	now := w.now().Unix()
	oldest := now - int64(len(w.slots)) + 1

	var req1, req10, req60, err60 int64
	var hist60 obs.Hist
	byClass := map[string]int64{}
	var points []SecondPoint
	for i := range w.slots {
		s := &w.slots[i]
		if s.sec < oldest || s.sec > now || s.sec == 0 {
			continue
		}
		age := now - s.sec
		if age < 1 {
			req1 += s.requests
		}
		if age < 10 {
			req10 += s.requests
		}
		if age < 60 {
			req60 += s.requests
			err60 += s.errors
			for k, v := range s.byClass {
				byClass[k] += v
			}
			for b := range s.lat {
				hist60[b] += s.lat[b]
			}
			if s.occHW > snap.OccupancyHW60s {
				snap.OccupancyHW60s = s.occHW
			}
			snap.BreakerTransitions60s += s.breakerTr
			if s.bytesHW > snap.InFlightBytesHW60s {
				snap.InFlightBytesHW60s = s.bytesHW
			}
			snap.Reaped60s += s.reaped
		}
		if includeSeries {
			p := SecondPoint{Unix: s.sec, Requests: s.requests, Errors: s.errors,
				OccHW: s.occHW, BreakerTr: s.breakerTr,
				BytesHW: s.bytesHW, Reaped: s.reaped,
				P50US: s.lat.Quantile(0.50), P99US: s.lat.Quantile(0.99)}
			if len(s.byClass) > 0 {
				p.ByClass = make(map[string]int64, len(s.byClass))
				for k, v := range s.byClass {
					p.ByClass[k] = v
				}
			}
			points = append(points, p)
		}
	}
	snap.Rate1s = float64(req1)
	snap.Rate10s = float64(req10) / 10
	snap.Rate60s = float64(req60) / 60
	if req60 > 0 {
		snap.ErrorRate60s = float64(err60) / float64(req60)
	}
	if len(byClass) > 0 {
		snap.ErrorsByClass60s = byClass
	}
	snap.P50US60s = hist60.Quantile(0.50)
	snap.P99US60s = hist60.Quantile(0.99)
	if includeSeries {
		sort.Slice(points, func(i, j int) bool { return points[i].Unix < points[j].Unix })
		snap.Series = points
	}
	return snap
}
