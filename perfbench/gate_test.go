package main

import (
	"testing"

	"dswp/internal/core"
	rt "dswp/internal/runtime"
	"dswp/internal/workloads"
)

// A pipelined result whose state differs from the interpreter's run of
// the untransformed loop, or an operation with no result, must count as
// attempted and not ok.
func TestCorruptedResultLowersOKShare(t *testing.T) {
	const id = "list-traversal[n=64]"
	g := newGate()
	if err := g.reference(id, workloads.ListTraversal(64)); err != nil {
		t.Fatal(err)
	}
	p := workloads.ListTraversal(64)
	tr, _, err := compile(p, core.Config{})
	if err != nil || tr == nil {
		t.Fatalf("compile: pipeline %v, err %v", tr, err)
	}
	res, err := rt.Run(tr.Threads, rt.Options{Mem: p.Mem, Regs: p.Regs})
	if err != nil {
		t.Fatal(err)
	}
	if !g.checkResult(id, res) {
		t.Fatal("the pipelined result does not match its reference")
	}
	if got := g.okShare(); got != 1 {
		t.Fatalf("ok_share after one good result = %v, want 1", got)
	}

	res.Mem.Set(0, res.Mem.Get(0)+1)
	if g.checkResult(id, res) {
		t.Fatal("a corrupted result matched the reference")
	}
	if got := g.okShare(); got != 0.5 {
		t.Fatalf("ok_share after a corrupted result = %v, want 0.5", got)
	}

	if g.checkResult(id, nil) {
		t.Fatal("a failed operation counted as ok")
	}
	if a, ok := g.counts(); a != 3 || ok != 1 {
		t.Fatalf("counts = %d attempted, %d ok; want 3, 1", a, ok)
	}
}

// A served digest is compared as the engine prints it; one for another
// program, or an unknown program, is not ok.
func TestDigestsCompareByProgram(t *testing.T) {
	g := newGate()
	if err := g.reference("short", workloads.ListTraversal(32)); err != nil {
		t.Fatal(err)
	}
	if err := g.reference("long", workloads.ListTraversal(64)); err != nil {
		t.Fatal(err)
	}
	short, long := g.ref["short"], g.ref["long"]
	if short == long || len(short) != 16 {
		t.Fatalf("references %q and %q: want two distinct 16-digit hex digests", short, long)
	}
	if !g.check("short", short) || g.check("short", long) || g.check("unknown", short) {
		t.Fatal("digests matched across programs")
	}
}
