package exp

import (
	"errors"
	"testing"

	"dswp/internal/core"
	"dswp/internal/sim"
	"dswp/internal/workloads"
)

// gatePin is one pipelined suite loop's deterministic figures: DAG_SCC
// nodes and queues of the default DSWP transform, instructions the
// interpreter retires running the original loop, values handed off
// through the queues, and the cycle model's sequential and pipelined
// makespans at sim.FullWidth.
type gatePin struct {
	sccs, queues          int
	instrs, values        int64
	seqCycles, pipeCycles int64
}

// gatePins holds the twelve suite loops DSWP pipelines at the default
// config; 164.gzip (one SCC) and adpcmdec-spurious (one stage) are
// declined and must stay declined.
var gatePins = map[string]gatePin{
	"29.compress":   {sccs: 8, queues: 7, instrs: 220011, values: 60005, seqCycles: 595006, pipeCycles: 495039},
	"179.art":       {sccs: 6, queues: 4, instrs: 132009, values: 36002, seqCycles: 171005, pipeCycles: 144026},
	"181.mcf":       {sccs: 11, queues: 7, instrs: 84008, values: 24005, seqCycles: 135096, pipeCycles: 102029},
	"183.equake":    {sccs: 8, queues: 5, instrs: 132010, values: 36003, seqCycles: 193661, pipeCycles: 145676},
	"188.ammp":      {sccs: 12, queues: 8, instrs: 145612, values: 36005, seqCycles: 391111, pipeCycles: 197044},
	"256.bzip2":     {sccs: 11, queues: 12, instrs: 218002, values: 42010, seqCycles: 201483, pipeCycles: 143521},
	"adpcmdec":      {sccs: 12, queues: 14, instrs: 219262, values: 64630, seqCycles: 229012, pipeCycles: 166521},
	"epicdec":       {sccs: 13, queues: 9, instrs: 210803, values: 80005, seqCycles: 444400, pipeCycles: 280419},
	"jpegenc":       {sccs: 10, queues: 7, instrs: 156012, values: 48004, seqCycles: 153006, pipeCycles: 132009},
	"wc":            {sccs: 11, queues: 11, instrs: 309924, values: 72009, seqCycles: 356020, pipeCycles: 278034},
	"179.art-accum": {sccs: 10, queues: 9, instrs: 78016, values: 24006, seqCycles: 105027, pipeCycles: 114032},
	"hashred":       {sccs: 21, queues: 7, instrs: 384010, values: 48005, seqCycles: 580005, pipeCycles: 336032},
}

// TestSuiteRegressionGate is the deterministic regression gate: every
// figure above is exact for a given build of the compiler and the cycle
// model, so a change that moves one shows up here as a visible diff of
// gatePins. Wall-clock timing stays advisory (perfbench).
func TestSuiteRegressionGate(t *testing.T) {
	suite := append(append(workloads.Table1Suite(), workloads.CaseStudies()...),
		workloads.ReplicationSuite()...)
	cfg := sim.FullWidth()
	pipelined := 0
	for _, b := range suite {
		pr, err := Prepare(b.Build(), core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, pinned := gatePins[b.Name]
		tr, err := core.Apply(pr.P.F, pr.P.LoopHeader, pr.Prof, core.Config{})
		if errors.Is(err, core.ErrSingleSCC) || errors.Is(err, core.ErrUnprofitable) {
			if pinned {
				t.Errorf("%s: DSWP declined a pinned loop: %v", b.Name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		pipelined++
		base, err := pr.RunBase(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trace, _ := pr.BaseTrace()
		pipe, _, err := pr.RunAuto(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := gatePin{sccs: tr.Stats.SCCs, queues: tr.NumQueues,
			instrs: trace[0].Steps, seqCycles: base.Cycles, pipeCycles: pipe.Cycles}
		for _, q := range pipe.Queues {
			got.values += q.Pushes
		}
		if !pinned {
			t.Errorf("%s: DSWP pipelines a loop with no pin: %+v", b.Name, got)
		} else if got != want {
			t.Errorf("%s: got %+v, pinned %+v", b.Name, got, want)
		}
	}
	if pipelined != len(gatePins) {
		t.Errorf("%d suite loops pipelined, %d pinned", pipelined, len(gatePins))
	}
}
