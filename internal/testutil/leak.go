// Package testutil holds reusable test infrastructure: currently the
// goroutine-leak checker the engine, HTTP, supervisor, and telemetry
// suites (and the chaos soak's service driver, internal/chaos) run after
// every scenario. It deliberately does not import "testing", so non-test
// code like internal/chaos, which cmd/dswpchaos runs, can use
// Snapshot/Leaked directly; tests pass *testing.T, which satisfies TB
// structurally.
package testutil

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB the checker needs.
type TB interface {
	Helper()
	Errorf(format string, args ...any)
	Cleanup(func())
}

// Goroutine is one parsed stack-dump entry.
type Goroutine struct {
	ID    string // numeric id, as text
	State string // "running", "chan receive", "IO wait", ...
	Stack string // full block, header included
}

// Snapshot captures the identities of every live goroutine. Take one at
// the start of a scenario; Leaked diffs a later state against it.
func Snapshot() map[string]Goroutine {
	out := make(map[string]Goroutine)
	for _, g := range dump() {
		out[g.ID] = g
	}
	return out
}

// dump parses runtime.Stack(true) into per-goroutine records.
func dump() []Goroutine {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []Goroutine
	for _, block := range strings.Split(string(buf), "\n\n") {
		header, _, ok := strings.Cut(block, "\n")
		if !ok || !strings.HasPrefix(header, "goroutine ") {
			continue
		}
		rest := strings.TrimPrefix(header, "goroutine ")
		id, state, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		out = append(out, Goroutine{ID: id,
			State: strings.Trim(state, "[]:"), Stack: block})
	}
	return out
}

// benign reports goroutines that are not leaks regardless of when they
// appeared: runtime housekeeping (GC workers, finalizers), the signal
// receiver, and the testing harness's own machinery.
func benign(g Goroutine) bool {
	for _, marker := range []string{
		"created by runtime",
		"runtime.goexit",
		"os/signal.signal_recv",
		"os/signal.loop",
		"testing.tRunner",
		"testing.(*M).",
		"testing.runTests",
		"runtime.ReadTrace",
	} {
		if strings.Contains(g.Stack, marker) {
			return true
		}
	}
	// The goroutine taking this snapshot.
	return strings.Contains(g.Stack, "testutil.dump")
}

// Leaked returns goroutines live now that were not in base and are not
// benign, giving them up to settle to exit first — goroutines legitimately
// winding down (a just-drained worker, a closing connection) need a
// moment, and polling until quiet keeps the checker deterministic without
// slowing the clean path (first check is immediate).
func Leaked(base map[string]Goroutine, settle time.Duration) []Goroutine {
	deadline := time.Now().Add(settle)
	backoff := time.Millisecond
	for {
		var leaked []Goroutine
		for _, g := range dump() {
			if _, ok := base[g.ID]; ok || benign(g) {
				continue
			}
			leaked = append(leaked, g)
		}
		if len(leaked) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return leaked
		}
		time.Sleep(backoff)
		if backoff < 50*time.Millisecond {
			backoff *= 2
		}
	}
}

// VerifyNone snapshots now and registers a cleanup that fails the test if
// any non-benign goroutine born after this call is still running when the
// test ends (after a 2s settle). Call it first thing in a test:
//
//	func TestServing(t *testing.T) {
//		testutil.VerifyNone(t)
//		...
//	}
func VerifyNone(t TB) {
	base := Snapshot()
	t.Cleanup(func() {
		t.Helper()
		for _, g := range Leaked(base, 2*time.Second) {
			t.Errorf("leaked goroutine %s [%s]:\n%s", g.ID, g.State, g.Stack)
		}
	})
}
