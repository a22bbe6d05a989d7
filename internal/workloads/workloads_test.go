package workloads

import (
	"testing"

	"dswp/internal/cfg"
	"dswp/internal/dep"
	"dswp/internal/interp"
	"dswp/internal/ir"
)

func all() []Builder {
	out := append([]Builder{}, Table1Suite()...)
	out = append(out, CaseStudies()...)
	out = append(out,
		Builder{"list-traversal", func() *Program { return ListTraversal(500) }},
		Builder{"list-of-lists", func() *Program { return ListOfLists(50, 6) }},
	)
	return out
}

func TestAllWorkloadsRunAndTerminate(t *testing.T) {
	for _, wb := range all() {
		t.Run(wb.Name, func(t *testing.T) {
			p := wb.Build()
			if p.Name != wb.Name {
				t.Errorf("name %q != builder name %q", p.Name, wb.Name)
			}
			if err := p.F.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
			res, err := interp.Run(p.F, p.Options())
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.Threads[0].Steps < 1000 {
				t.Errorf("only %d dynamic instructions; workload too small", res.Threads[0].Steps)
			}
			if p.Coverage <= 0 || p.Coverage > 1 {
				t.Errorf("coverage %f out of range", p.Coverage)
			}
			if p.Description == "" {
				t.Error("missing description")
			}
		})
	}
}

func TestAllWorkloadsHaveTargetLoop(t *testing.T) {
	for _, wb := range all() {
		t.Run(wb.Name, func(t *testing.T) {
			p := wb.Build()
			c, l, err := cfg.LoopForHeader(p.F, p.LoopHeader)
			if err != nil {
				t.Fatal(err)
			}
			if l.Preheader < 0 {
				t.Fatal("loop needs a preheader for DSWP")
			}
			if _, err := dep.Build(p.F, c, l, dep.Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sccCount builds the dependence graph and returns the DAG_SCC size.
func sccCount(t *testing.T, p *Program, opts dep.Options) int {
	t.Helper()
	c, l, err := cfg.LoopForHeader(p.F, p.LoopHeader)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dep.Build(p.F, c, l, opts)
	if err != nil {
		t.Fatal(err)
	}
	return len(g.Condense().Comps)
}

func TestSCCStructures(t *testing.T) {
	// Every Table 1 loop must be multi-SCC (DSWP-applicable); gzip must
	// be a single SCC (§5.4).
	for _, wb := range Table1Suite() {
		p := wb.Build()
		if n := sccCount(t, p, dep.Options{}); n < 2 {
			t.Errorf("%s: %d SCCs, want >= 2", p.Name, n)
		}
	}
	if n := sccCount(t, Gzip(), dep.Options{}); n != 1 {
		t.Errorf("164.gzip: %d SCCs, want exactly 1", n)
	}
}

func TestEpicConservativeVsAccurate(t *testing.T) {
	// §5.1: conservative memory analysis collapses the epic loop into
	// very few SCCs (the paper reports 4); accurate analysis frees the
	// stores from the load.
	accurate := sccCount(t, Epic(), dep.Options{})
	conservative := sccCount(t, Epic(), dep.Options{ConservativeMemory: true})
	if conservative >= accurate {
		t.Errorf("conservative %d SCCs, accurate %d: accuracy must add SCCs", conservative, accurate)
	}
	if conservative > 6 {
		t.Errorf("conservative mode has %d SCCs; expected a handful (paper: 4)", conservative)
	}
}

func TestAdpcmSpuriousDepsShrinkSCCs(t *testing.T) {
	// §5.2: spurious (unattributed) memory dependences fuse the loop; the
	// clean version has many more SCCs and a smaller largest SCC.
	clean := sccCount(t, Adpcm(), dep.Options{})
	spurious := sccCount(t, AdpcmSpurious(), dep.Options{})
	if spurious >= clean {
		t.Errorf("spurious %d SCCs >= clean %d", spurious, clean)
	}
}

func TestArtAccumulatorExpansionAddsSCCs(t *testing.T) {
	// §5.3: accumulator expansion splits the in-memory reduction.
	orig := sccCount(t, Art(), dep.Options{})
	expanded := sccCount(t, ArtAccum(), dep.Options{})
	if expanded <= orig {
		t.Errorf("expansion: %d SCCs vs original %d, want more", expanded, orig)
	}
}

func TestWCCountsMatchGo(t *testing.T) {
	p := WC()
	base := interp.Layout(p.F)[0]
	var chars, words, lines int64
	inword := false
	for k := int64(0); k < 24000; k++ {
		ch := p.Mem.Get(base + k)
		chars++
		if ch == 10 {
			lines++
		}
		if ch <= 32 {
			inword = false
		} else if !inword {
			inword = true
			words++
		}
	}
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	outs := res.LiveOuts
	regs := p.F.LiveOuts // chars, words, lines
	if outs[regs[0]] != chars || outs[regs[1]] != words || outs[regs[2]] != lines {
		t.Fatalf("wc = %d/%d/%d, want %d/%d/%d",
			outs[regs[0]], outs[regs[1]], outs[regs[2]], chars, words, lines)
	}
}

func TestCompressOutputMatchesGo(t *testing.T) {
	p := Compress()
	bases := interp.Layout(p.F)
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20000; i += 997 {
		v := p.Mem.Get(bases[0] + i)
		want := ((v * 2654435761 >> 7) ^ v) & 0xffff
		if got := res.Mem.Get(bases[1] + i); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestEquakeSumMatchesGo(t *testing.T) {
	p := Equake()
	bases := interp.Layout(p.F)
	want := 0.0
	for j := int64(0); j < 12000; j++ {
		col := p.Mem.Get(bases[0] + j)
		a := ir.I2F(p.Mem.Get(bases[1] + j))
		x := ir.I2F(p.Mem.Get(bases[2] + col))
		want += a * x
	}
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	got := ir.I2F(res.LiveOuts[p.F.LiveOuts[0]])
	if got != want {
		t.Fatalf("equake sum = %g, want %g", got, want)
	}
}

func TestMCFTotalMatchesGo(t *testing.T) {
	p := MCF()
	base := interp.Layout(p.F)[0]
	var want int64
	node := p.Mem.Get(base + 0)
	for node != 0 {
		cost := p.Mem.Get(node + 1)
		flow := p.Mem.Get(node + 3)
		m := cost * flow
		if m < 0 {
			m = -m
		}
		want += m + cost
		node = p.Mem.Get(node + 0)
	}
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.LiveOuts[p.F.LiveOuts[0]]; got != want {
		t.Fatalf("mcf total = %d, want %d", got, want)
	}
}

func TestGzipAdvancesThroughWindow(t *testing.T) {
	p := Gzip()
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		t.Fatal(err)
	}
	base := interp.Layout(p.F)[0]
	if got := res.LiveOuts[p.F.LiveOuts[0]]; got < base+20000 {
		t.Fatalf("gzip final position %d, want >= %d", got, base+20000)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("rng not deterministic")
		}
	}
	if NewRNG(0).s == 0 {
		t.Fatal("zero seed must be remapped")
	}
	p := NewRNG(9).Perm(50)
	seen := map[int64]bool{}
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
	f := NewRNG(11).Float64()
	if f < 0 || f >= 1 {
		t.Fatalf("Float64 = %f", f)
	}
}

func TestWorkloadsAreFreshInstances(t *testing.T) {
	p1 := MCF()
	p2 := MCF()
	if p1.F == p2.F || p1.Mem == p2.Mem {
		t.Fatal("builders must return fresh instances")
	}
	// Mutating one must not affect the other.
	p1.Mem.Set(20, 999)
	if p2.Mem.Get(20) == 999 {
		t.Fatal("memory shared across instances")
	}
}
