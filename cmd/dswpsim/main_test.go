package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	rt "dswp/internal/runtime"
	"dswp/internal/validate"
)

// TestExitCodes pins the CLI's documented exit-code contract: distinct
// codes per failure class, including errors arriving wrapped.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil-ish generic", errors.New("boom"), 1},
		{"deadlock", &rt.DeadlockError{}, 2},
		{"timeout", &rt.TimeoutError{}, 3},
		{"mismatch", &validate.MismatchError{Tag: "t", Word: 3, Detail: "d"}, 4},
		{"stage panic", &rt.StageFailure{Thread: 1, Value: "v"}, 5},
		{"wrapped deadlock", fmt.Errorf("ctx: %w", &rt.DeadlockError{}), 2},
		{"wrapped timeout", fmt.Errorf("ctx: %w", &rt.TimeoutError{}), 3},
		{"wrapped mismatch", fmt.Errorf("ctx: %w", &validate.MismatchError{Tag: "t"}), 4},
		{"wrapped panic", fmt.Errorf("ctx: %w", &rt.StageFailure{}), 5},
		{"queue fault is generic", &rt.QueueFaultError{Thread: 1, Queue: 0}, 1},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", c.name, c.err, got, c.want)
		}
	}
}

// TestInstrumentableRuns: -metrics and -trace are refused (exit 1) on
// runs that emit no pipeline events, with a message naming the runtime
// that does.
func TestInstrumentableRuns(t *testing.T) {
	for _, c := range []struct {
		engine, scheme string
		ok             bool
	}{
		{"interp", "dswp", false},
		{"", "dswp", false},
		{"goroutine", "base", false},
		{"supervised", "base", false},
		{"goroutine", "dswp", true},
		{"supervised", "doacross", true},
	} {
		err := instrumentable(c.engine, c.scheme)
		if (err == nil) != c.ok {
			t.Errorf("-runtime=%s -scheme=%s: err = %v, want ok %v", c.engine, c.scheme, err, c.ok)
		}
		if err != nil && (exitCode(err) != 1 || !strings.Contains(err.Error(), "-runtime=goroutine")) {
			t.Errorf("-runtime=%s -scheme=%s: exit %d, message %q", c.engine, c.scheme, exitCode(err), err)
		}
	}
}
