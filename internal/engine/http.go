package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	rt "dswp/internal/runtime"
	"dswp/internal/telemetry"
)

// NewMux builds the dswpd HTTP surface over an engine:
//
//	POST /run                  — execute a pipeline (Request in, Response out)
//	GET  /metrics              — EngineSnapshot JSON by default; Prometheus
//	                             text format under Accept negotiation or
//	                             ?format=prometheus
//	GET  /healthz              — liveness; 503 once draining; recovery stats
//	GET  /workloads            — servable workloads with compile/breaker status
//	GET  /debug/requests       — tail-sampled request traces, newest first
//	GET  /debug/requests/{id}  — one trace: span tree as JSON, plain text
//	                             (?format=text), or Chrome trace JSON
//	                             (?format=chrome)
//	GET  /debug/vars           — windowed time-series, per-workload
//	                             profiles, tracer stats
//
// Everything defaults to JSON; stdlib net/http only.
func NewMux(e *Engine) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", e.handleRun)
	mux.HandleFunc("/metrics", e.handleMetrics)
	mux.HandleFunc("/healthz", e.handleHealthz)
	mux.HandleFunc("/workloads", e.handleWorkloads)
	mux.HandleFunc("/debug/requests", e.handleDebugRequests)
	mux.HandleFunc("/debug/requests/{id}", e.handleDebugRequest)
	mux.HandleFunc("/debug/vars", e.handleDebugVars)
	return mux
}

// requireGet enforces method discipline on read-only endpoints: anything
// but GET (or HEAD, which net/http serves as GET minus the body) gets a
// 405 with the JSON error shape and an Allow header.
func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return true
	}
	w.Header().Set("Allow", "GET, HEAD")
	writeJSON(w, http.StatusMethodNotAllowed,
		errorBody{Error: "GET only", Class: "bad-request"})
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorBody is the JSON error shape: a stable machine-readable Class
// alongside the human-readable message.
type errorBody struct {
	Error string `json:"error"`
	// Class is the failure taxonomy bucket: "shed", "draining",
	// "deadline", "deadlock", "timeout", "stage-panic", "queue-fault",
	// "step-limit", "bad-request", or "internal".
	Class string `json:"class"`
}

// classify maps an error onto its taxonomy class and HTTP status. The
// supervisor's typed errors each get a distinct class instead of
// collapsing into 500: deadlock is 508 (Loop Detected — the watchdog
// proved circular queue waiting), watchdog timeout is 504, a stage panic
// or injected queue fault is a 500 with its own class, shedding is 429,
// draining 503.
func classify(err error) (string, int) {
	var (
		uw *UnknownWorkloadError
		um *UnknownModeError
		dl *rt.DeadlockError
		to *rt.TimeoutError
		sf *rt.StageFailure
		qf *rt.QueueFaultError
		sl *rt.StepLimitError
	)
	var rtl *RequestTooLargeError
	switch {
	case errors.Is(err, ErrOverloaded):
		return "shed", http.StatusTooManyRequests
	case errors.Is(err, ErrResourceExhausted):
		return "resource-exhausted", http.StatusTooManyRequests
	case errors.As(err, &rtl):
		return "request-too-large", http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrDraining):
		return "draining", http.StatusServiceUnavailable
	case errors.Is(err, ErrReaped):
		// Check before the context classes: a reaped error wraps the
		// cancellation it forced.
		return "reaped", http.StatusGatewayTimeout
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return "deadline", http.StatusGatewayTimeout
	case errors.As(err, &dl):
		return "deadlock", http.StatusLoopDetected
	case errors.As(err, &to):
		return "timeout", http.StatusGatewayTimeout
	case errors.As(err, &sf):
		return "stage-panic", http.StatusInternalServerError
	case errors.As(err, &qf):
		return "queue-fault", http.StatusInternalServerError
	case errors.As(err, &sl):
		return "step-limit", http.StatusInternalServerError
	case errors.As(err, &uw), errors.As(err, &um):
		return "bad-request", http.StatusBadRequest
	default:
		return "internal", http.StatusInternalServerError
	}
}

// statusFor maps the engine's typed errors onto HTTP statuses; see
// classify for the taxonomy.
func statusFor(err error) int {
	_, status := classify(err)
	return status
}

// ErrorClass maps an engine error onto its stable taxonomy class
// ("shed", "deadline", "stage-panic", ...; see errorBody.Class). In-
// process callers (the telemetry plane, the chaos soak's contract check)
// use it to bucket failures exactly the way the HTTP error body does.
func ErrorClass(err error) string {
	if err == nil {
		return ""
	}
	class, _ := classify(err)
	return class
}

func errorBodyFor(err error) errorBody {
	class, _ := classify(err)
	return errorBody{Error: err.Error(), Class: class}
}

func (e *Engine) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed,
			errorBody{Error: "POST only", Class: "bad-request"})
		return
	}
	if e.opts.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, e.opts.MaxBodyBytes)
	}
	if err := fpReadBody.Fail(); err != nil {
		writeJSON(w, http.StatusInternalServerError,
			errorBody{Error: "reading request body: " + err.Error(), Class: "internal"})
		return
	}
	var req Request
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			e.met.bodyTooLarge.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
					Class: "body-too-large"})
			return
		}
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: "bad request: " + err.Error(), Class: "bad-request"})
		return
	}
	resp, id, err := e.RunTraced(r.Context(), req)
	if id != "" {
		w.Header().Set("X-Request-ID", id)
	}
	if err != nil {
		status := statusFor(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "1")
		}
		writeJSON(w, status, errorBodyFor(err))
		return
	}
	if fpWriteResp.Fail() != nil {
		// Abort the connection instead of writing the response — the
		// stdlib recovers ErrAbortHandler quietly and resets the
		// connection, the shape of a peer dying mid-response.
		panic(http.ErrAbortHandler)
	}
	writeJSON(w, http.StatusOK, resp)
}

// wantsProm decides the /metrics representation: explicit ?format wins,
// then the Accept header. Prometheus scrapers ask for text/plain (or
// application/openmetrics-text); everything else — curl, browsers, the
// existing JSON consumers — keeps getting the byte-identical JSON
// snapshot.
func wantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

func (e *Engine) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	if wantsProm(r) {
		w.Header().Set("Content-Type", telemetry.PromContentType)
		_, _ = w.Write([]byte(promText(e.met.Snapshot())))
		return
	}
	writeJSON(w, http.StatusOK, e.met.Snapshot())
}

type health struct {
	Status   string `json:"status"`
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	// Degraded lists subsystems currently serving in a degraded mode
	// ("checkpoint-store", "breaker:<workload>"); see DegradedSubsystems.
	// The process stays live (200) — degradation is a warning, not death.
	Degraded []string `json:"degraded,omitempty"`
	// Recovery reports the startup crash-recovery pass, when one ran.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
}

func (e *Engine) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	h := health{Status: "ok", InFlight: e.met.inflight.Load(), Queued: e.met.queued.Load(),
		Degraded: e.DegradedSubsystems(), Recovery: e.LastRecovery()}
	code := http.StatusOK
	if len(h.Degraded) > 0 {
		h.Status = "degraded"
	}
	if e.Draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (e *Engine) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK,
		map[string][]WorkloadInfo{"workloads": e.WorkloadInfos()})
}

// debugRequests is the /debug/requests shape: the tracer's sampling
// counters plus every retained trace's summary, newest first.
type debugRequests struct {
	Enabled bool                  `json:"enabled"`
	Stats   telemetry.TracerStats `json:"stats"`
	Traces  []telemetry.Summary   `json:"traces"`
}

func (e *Engine) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, debugRequests{
		Enabled: e.tracer != nil,
		Stats:   e.tracer.Stats(),
		Traces:  e.tracer.List(),
	})
}

func (e *Engine) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	id := r.PathValue("id")
	tr := e.tracer.Get(id)
	if tr == nil {
		msg := "no retained trace " + id + " (dropped by tail sampling, evicted, or never minted)"
		if e.tracer == nil {
			msg = "request tracing is disabled"
		}
		writeJSON(w, http.StatusNotFound, errorBody{Error: msg, Class: "bad-request"})
		return
	}
	switch r.URL.Query().Get("format") {
	case "text":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = tr.WriteText(w)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", "attachment; filename="+id+".trace.json")
		_ = tr.WriteChrome(w)
	default:
		writeJSON(w, http.StatusOK, tr)
	}
}

// debugVars is the /debug/vars shape: the engine-wide windowed
// time-series (full per-second history unless ?series=0), each served
// workload's windowed profile headlines, and the tracer's counters.
type debugVars struct {
	UptimeSeconds float64                             `json:"uptime_seconds"`
	Window        telemetry.WindowSnapshot            `json:"window"`
	Workloads     map[string]telemetry.WindowSnapshot `json:"workloads,omitempty"`
	Tracer        telemetry.TracerStats               `json:"tracer"`
}

// debugVarsOf encodes a snapshot in the /debug/vars shape.
func debugVarsOf(s *EngineSnapshot, includeSeries bool) debugVars {
	dv := debugVars{UptimeSeconds: s.UptimeSeconds, Window: s.Window,
		Workloads: make(map[string]telemetry.WindowSnapshot, len(s.Workloads))}
	if !includeSeries {
		dv.Window.Series = nil
	}
	for _, w := range s.Workloads {
		dv.Workloads[w.Workload] = w.Window
	}
	if s.Tracer != nil {
		dv.Tracer = *s.Tracer
	}
	return dv
}

func (e *Engine) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK,
		debugVarsOf(e.met.Snapshot(), r.URL.Query().Get("series") != "0"))
}
