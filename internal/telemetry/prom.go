package telemetry

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync/atomic"

	"dswp/internal/obs"
)

// Prom builds Prometheus text exposition format (version 0.0.4) without
// any dependency: the serving daemon's /metrics endpoint negotiates it
// alongside the original JSON snapshot. The builder enforces the format's
// structural rules — one HELP/TYPE block per metric family, emitted once,
// immediately before its samples — and the companion linter (promlint.go)
// verifies the output in tests and the CI metrics smoke.
type Prom struct {
	buf strings.Builder
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name, Value string
}

// L is shorthand for building one label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// PromContentType is the Content-Type for the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewProm returns an empty builder.
func NewProm() *Prom { return &Prom{} }

// labelEscaper escapes a label value per the exposition format: only
// backslash, double quote and newline have escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// escapeHelp escapes a HELP string.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

func (p *Prom) header(name, typ, help string) {
	fmt.Fprintf(&p.buf, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

func (p *Prom) sample(name, suffix string, labels []Label, v float64) {
	p.buf.WriteString(name)
	p.buf.WriteString(suffix)
	if len(labels) > 0 {
		p.buf.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				p.buf.WriteByte(',')
			}
			p.buf.WriteString(l.Name)
			p.buf.WriteString(`="`)
			labelEscaper.WriteString(&p.buf, l.Value)
			p.buf.WriteByte('"')
		}
		p.buf.WriteByte('}')
	}
	p.buf.WriteByte(' ')
	p.buf.WriteString(formatValue(v))
	p.buf.WriteByte('\n')
}

// Sample is one labeled value of a counter or gauge family.
type Sample struct {
	Labels []Label
	Value  float64
}

// Counter emits one counter family with its samples.
func (p *Prom) Counter(name, help string, samples ...Sample) {
	p.header(name, "counter", help)
	for _, s := range samples {
		p.sample(name, "", s.Labels, s.Value)
	}
}

// Gauge emits one gauge family with its samples.
func (p *Prom) Gauge(name, help string, samples ...Sample) {
	p.header(name, "gauge", help)
	for _, s := range samples {
		p.sample(name, "", s.Labels, s.Value)
	}
}

// HistSample is one histogram snapshot: an obs.Hist's log2 buckets with
// their count and headline quantiles (bucket lower bounds, exact to
// within 2x), plus the exact sum its owner tracked alongside. The JSON
// shape carries the count, quantiles and buckets; the sum and labels
// are for the Prometheus encoder.
type HistSample struct {
	Count   int64    `json:"count"`
	P50     int64    `json:"p50"`
	P99     int64    `json:"p99"`
	Buckets obs.Hist `json:"buckets"`
	Sum     int64    `json:"-"`
	Labels  []Label  `json:"-"`
}

// Merge adds o's buckets and sum into h and recomputes its count and
// quantiles; labels are kept.
func (h *HistSample) Merge(o HistSample) {
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
	h.Sum += o.Sum
	h.fill()
}

func (h *HistSample) fill() {
	h.Count = h.Buckets.Total()
	h.P50, h.P99 = h.Buckets.Quantile(0.50), h.Buckets.Quantile(0.99)
}

// Histogram emits one histogram family. The log2 buckets translate to
// cumulative `le` bounds (le="0", le="1", le="3", ..., le="+Inf"): obs
// bucket i holds values of bit-length i, so its inclusive upper bound is
// obs.BucketHigh(i); the final bucket is open-ended and renders only as
// +Inf.
func (p *Prom) Histogram(name, help string, samples ...HistSample) {
	p.header(name, "histogram", help)
	for _, s := range samples {
		var cum int64
		for i := 0; i < obs.HistBuckets; i++ {
			cum += s.Buckets[i]
			le := "+Inf"
			if i < obs.HistBuckets-1 {
				le = fmt.Sprintf("%d", obs.BucketHigh(i))
			}
			p.sample(name, "_bucket", append(append([]Label{}, s.Labels...), L("le", le)), float64(cum))
		}
		p.sample(name, "_sum", s.Labels, float64(s.Sum))
		p.sample(name, "_count", s.Labels, float64(cum))
	}
}

// WriteTo writes the built exposition and implements io.WriterTo.
func (p *Prom) WriteTo(w io.Writer) (int64, error) {
	n, err := io.WriteString(w, p.buf.String())
	return int64(n), err
}

// String returns the built exposition.
func (p *Prom) String() string { return p.buf.String() }

// SumHist pairs an obs.Hist with an exact running sum, so Prometheus
// histograms can expose a true _sum (obs.Hist alone only knows bucket
// counts). Add is atomic and allocation-free like obs.Hist.Add.
type SumHist struct {
	H   obs.Hist
	sum int64
}

// Add records one sample.
func (h *SumHist) Add(v int64) {
	h.H.Add(v)
	atomic.AddInt64(&h.sum, v)
}

// Sum returns the exact sum of recorded samples.
func (h *SumHist) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Snapshot copies the buckets with atomic loads and returns them with
// the sum, ready for Prom.Histogram.
func (h *SumHist) Snapshot(labels ...Label) HistSample {
	s := HistSample{Labels: labels, Sum: h.Sum()}
	for i := range h.H {
		s.Buckets[i] = atomic.LoadInt64(&h.H[i])
	}
	s.fill()
	return s
}
