package main

import (
	"fmt"
	"sync"

	"dswp/internal/interp"
	"dswp/internal/workloads"
)

// gate is the correctness check. Each program's reference digest comes
// from the interpreter running the untransformed loop, never from the
// engine or the compiler under test; every timed result is compared with
// it after its timer has stopped. A result whose digest differs, or an
// operation that returned no result, counts as attempted but not ok.
type gate struct {
	ref map[string]string // program id -> reference digest

	mu        sync.Mutex
	attempted int
	ok        int
}

func newGate() *gate { return &gate{ref: map[string]string{}} }

// digestOf renders a run's architectural state digest the way the engine
// reports it, so served and direct results compare as strings.
func digestOf(res *interp.Result) string {
	return fmt.Sprintf("%016x", workloads.StateDigest(res))
}

// reference runs p, which must not have been transformed, on the
// interpreter and records its digest under id.
func (g *gate) reference(id string, p *workloads.Program) error {
	res, err := interp.Run(p.F, p.Options())
	if err != nil {
		return fmt.Errorf("reference run of %s: %w", id, err)
	}
	g.ref[id] = digestOf(res)
	return nil
}

// check counts one attempted operation on program id and reports whether
// its result digest equals the reference. An empty digest stands for an
// operation that failed before producing a result.
func (g *gate) check(id, digest string) bool {
	ok := g.matches(id, digest)
	g.mu.Lock()
	g.attempted++
	if ok {
		g.ok++
	}
	g.mu.Unlock()
	return ok
}

// matches reports whether digest equals program id's reference without
// counting an operation; set-up and warm-up use it.
func (g *gate) matches(id, digest string) bool {
	want, known := g.ref[id]
	return known && digest != "" && digest == want
}

// checkResult is check for a direct run; res is nil when the run failed.
func (g *gate) checkResult(id string, res *interp.Result) bool {
	return g.check(id, resultDigest(res))
}

// resultDigest is digestOf, or "" for a run that returned no result.
func resultDigest(res *interp.Result) string {
	if res == nil {
		return ""
	}
	return digestOf(res)
}

// counts returns the attempted and ok totals so far.
func (g *gate) counts() (attempted, ok int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.ok
}

// okShare is ok over attempted (0 when nothing was attempted).
func (g *gate) okShare() float64 {
	a, ok := g.counts()
	if a == 0 {
		return 0
	}
	return float64(ok) / float64(a)
}
