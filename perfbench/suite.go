package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dswp/internal/core"
	"dswp/internal/interp"
	"dswp/internal/ir"
	"dswp/internal/profile"
	"dswp/internal/sim"
	"dswp/internal/workloads"
)

// suite is the paper's evaluation set: the ten Table 1 loops, the §5 case
// studies and hashred. DSWP declines two of the fourteen (164.gzip is one
// SCC, adpcmdec-spurious one stage); they stay in the compile pass.
func suite() []workloads.Builder {
	b := append(workloads.Table1Suite(), workloads.CaseStudies()...)
	return append(b, workloads.ReplicationSuite()...)
}

// compileTimes is one profile.Collect + core.Apply, layer by layer.
type compileTimes struct {
	profile, apply time.Duration
}

// compile profiles p and applies DSWP under cfg, transforming p.F in
// place. A loop DSWP declines returns a nil pipeline and no error.
func compile(p *workloads.Program, cfg core.Config) (*core.Transformed, compileTimes, error) {
	var ct compileTimes
	t0 := time.Now()
	prof, err := profile.Collect(p.F, p.Options())
	ct.profile = time.Since(t0)
	if err != nil {
		return nil, ct, fmt.Errorf("profile %s: %w", p.Name, err)
	}
	t1 := time.Now()
	tr, err := core.Apply(p.F, p.LoopHeader, prof, cfg)
	ct.apply = time.Since(t1)
	if errors.Is(err, core.ErrSingleSCC) || errors.Is(err, core.ErrUnprofitable) {
		return nil, ct, nil
	}
	if err != nil {
		return nil, ct, fmt.Errorf("transform %s: %w", p.Name, err)
	}
	return tr, ct, nil
}

// compilePass compiles every suite program at the default config and
// returns, in suite order, each one's time in ms (the compile_ms sample)
// and whether DSWP pipelined it.
func compilePass() (ms []float64, pipelined []bool, err error) {
	for _, b := range suite() {
		tr, ct, err := compile(b.Build(), core.Config{})
		if err != nil {
			return nil, nil, err
		}
		ms = append(ms, millis(ct.profile+ct.apply))
		pipelined = append(pipelined, tr != nil)
	}
	return ms, pipelined, nil
}

// simTotals accumulates the cycle model over a program set.
type simTotals struct {
	run                   time.Duration // trace recording plus sim.Run
	cyclesSeq, cyclesPipe int64
	speedups              []float64 // per program
}

// simulate runs the paper's cycle model (sim.FullWidth) on deterministic
// interpreter traces of p's untransformed loop and of its pipeline
// threads, and adds the result to t. Recording traces makes a run about
// ten times slower and allocates tens of MB, so this belongs in set-up,
// never in a timed window. p must be a fresh, untransformed build; the
// pipelined trace's state is checked against id's reference.
func (t *simTotals) simulate(g *gate, id string, p *workloads.Program, threads []*ir.Function) error {
	start := time.Now()
	opts := p.Options()
	opts.RecordTrace = true
	seq, err := interp.Run(p.F, opts)
	if err != nil {
		return fmt.Errorf("traced run of %s: %w", id, err)
	}
	pipe, err := interp.RunThreads(threads, opts)
	if err != nil {
		return fmt.Errorf("traced pipelined run of %s: %w", id, err)
	}
	if !g.matches(id, digestOf(pipe)) {
		return fmt.Errorf("traced pipelined run of %s differs from the reference", id)
	}
	cs, err := sim.Run(sim.FullWidth(), seq.Threads)
	if err != nil {
		return fmt.Errorf("simulating %s: %w", id, err)
	}
	cp, err := sim.Run(sim.FullWidth(), pipe.Threads)
	if err != nil {
		return fmt.Errorf("simulating pipelined %s: %w", id, err)
	}
	t.run += time.Since(start)
	// The traces are tens of MB; collect them now so the next program's
	// reuse the heap and the process peak (rss_peak_mb) reflects the
	// largest single trace, not how many happened to be live at once.
	runtime.GC()
	t.cyclesSeq += cs.Cycles
	t.cyclesPipe += cp.Cycles
	t.speedups = append(t.speedups, float64(cs.Cycles)/float64(cp.Cycles))
	return nil
}

// addTo adds the cycle model's per-layer metrics.
func (t *simTotals) addTo(r *report) {
	r.add("sim.run_ms", millis(t.run), "ms")
	r.add("sim.cycles_seq", float64(t.cyclesSeq), "cycles")
	r.add("sim.cycles_pipe", float64(t.cyclesPipe), "cycles")
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
