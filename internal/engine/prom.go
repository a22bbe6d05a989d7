package engine

import (
	"reflect"
	"sort"
	"strings"

	"dswp/internal/telemetry"
)

// promText renders one snapshot in Prometheus text exposition format
// (0.0.4): every tagged EngineSnapshot field, the failpoint triggers,
// the per-workload labeled series, the tracer's tail-sampling counters
// and the uptime. It is the same data the JSON encoder serves, under a
// second content type chosen by Accept negotiation. LintProm validates
// the output in tests and CI.
func promText(s *EngineSnapshot) string {
	p := telemetry.NewProm()
	writeFamilies(p, snapshotFamilies, reflect.ValueOf(s).Elem())

	// Failpoint trigger counts by site: all zero (and absent) in
	// production, nonzero only while a chaos schedule is armed.
	if len(s.Failpoints) > 0 {
		var samples []telemetry.Sample
		for _, site := range sortedKeys(s.Failpoints) {
			samples = append(samples, telemetry.Sample{
				Labels: []telemetry.Label{telemetry.L("site", site)},
				Value:  float64(s.Failpoints[site])})
		}
		p.Counter("dswp_failpoint_triggers_total",
			"Injected-fault triggers by failpoint site.", samples...)
	}

	if len(s.Workloads) > 0 {
		var reqs, degraded, occ, errs []telemetry.Sample
		var hists []telemetry.HistSample
		for _, w := range s.Workloads {
			wl := []telemetry.Label{telemetry.L("workload", w.Workload)}
			reqs = append(reqs, telemetry.Sample{Labels: wl, Value: float64(w.Requests)})
			degraded = append(degraded, telemetry.Sample{Labels: wl, Value: float64(w.Degraded)})
			occ = append(occ, telemetry.Sample{Labels: wl, Value: float64(w.OccHW)})
			hists = append(hists, w.Latency)
			for _, class := range sortedKeys(w.ByClass) {
				errs = append(errs, telemetry.Sample{
					Labels: []telemetry.Label{wl[0], telemetry.L("class", class)},
					Value:  float64(w.ByClass[class])})
			}
		}
		p.Counter("dswp_workload_requests_total",
			"Finished requests by workload.", reqs...)
		if len(errs) > 0 {
			p.Counter("dswp_workload_errors_total",
				"Errored requests by workload and failure class.", errs...)
		}
		p.Counter("dswp_workload_degraded_total",
			"Breaker-degraded sequential serves by workload.", degraded...)
		p.Gauge("dswp_workload_queue_occupancy_hw",
			"Lifetime admission-queue occupancy high-water by workload.", occ...)
		p.Histogram("dswp_workload_latency_us",
			"End-to-end success latency in microseconds by workload (log2 buckets).",
			hists...)
	}

	if s.Tracer != nil {
		writeFamilies(p, tracerFamilies, reflect.ValueOf(s.Tracer).Elem())
	}
	p.Gauge("dswp_uptime_seconds", "Engine uptime.",
		telemetry.Sample{Value: s.UptimeSeconds})
	return p.String()
}

// promFamily is one Prometheus family declared by the prom and help tags
// of a snapshot struct's fields (see EngineSnapshot).
type promFamily struct {
	name, help string
	fields     []int               // struct field indices
	labels     [][]telemetry.Label // each field's label set; nil = none
}

var (
	snapshotFamilies = promFamiliesOf(reflect.TypeOf(EngineSnapshot{}))
	tracerFamilies   = promFamiliesOf(reflect.TypeOf(telemetry.TracerStats{}))
)

// promFamiliesOf reads a struct type's prom and help tags, grouping
// adjacent fields that name one family.
func promFamiliesOf(t reflect.Type) []promFamily {
	var fams []promFamily
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("prom")
		if !ok {
			continue
		}
		name, label, _ := strings.Cut(tag, ",")
		if n := len(fams); n == 0 || fams[n-1].name != name {
			fams = append(fams, promFamily{name: name, help: t.Field(i).Tag.Get("help")})
		}
		f := &fams[len(fams)-1]
		var labels []telemetry.Label
		if k, v, ok := strings.Cut(label, "="); ok {
			labels = []telemetry.Label{telemetry.L(k, v)}
		}
		f.fields = append(f.fields, i)
		f.labels = append(f.labels, labels)
	}
	return fams
}

// writeFamilies emits each family's samples from struct value v: a
// histogram for telemetry.HistSample fields, otherwise a counter when the
// name ends in _total and a gauge when it does not.
func writeFamilies(p *telemetry.Prom, fams []promFamily, v reflect.Value) {
	for _, f := range fams {
		if _, ok := v.Field(f.fields[0]).Interface().(telemetry.HistSample); ok {
			hists := make([]telemetry.HistSample, len(f.fields))
			for j, i := range f.fields {
				hists[j] = v.Field(i).Interface().(telemetry.HistSample)
				hists[j].Labels = f.labels[j]
			}
			p.Histogram(f.name, f.help, hists...)
			continue
		}
		samples := make([]telemetry.Sample, len(f.fields))
		for j, i := range f.fields {
			samples[j] = telemetry.Sample{Labels: f.labels[j], Value: float64(v.Field(i).Int())}
		}
		if strings.HasSuffix(f.name, "_total") {
			p.Counter(f.name, f.help, samples...)
		} else {
			p.Gauge(f.name, f.help, samples...)
		}
	}
}

// sortedKeys orders a map's keys for deterministic exposition output.
func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
