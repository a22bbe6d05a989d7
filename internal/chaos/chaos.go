// Package chaos is the seed-reproducible chaos soak. It holds the
// project's core promise — a pipelined run ends in exactly the state the
// sequential loop computes — against injected faults, with two drivers
// over one core:
//
//   - supervisor: one supervised pipeline run per scenario under transient
//     and permanent queue faults, stage panics, forced stalls under a tiny
//     attempt timeout, tiny queue capacities, mid-run cancellation and a
//     durable-store crash rehearsal, across every built-in workload at
//     partition widths 2 and 3, with and without flow packing, and on the
//     PS-DSWP replicated pipelines of every replicable target;
//   - service: one engine lifetime per scenario serving concurrent mixed
//     traffic, in process and over HTTP, while seeded failpoint schedules
//     inject storage, pool, compile, retry and HTTP faults.
//
// The drivers share the core. Scenario i of a soak is a pure function of
// (driver, seed, i), drawn from one workloads.RNG stream, so any failure
// replays from its seed and run index. Every result is compared with the
// workloads.StateDigest of interp.Run on the untransformed program. Every
// contract check must end in that digest or in an error engine.ErrorClass
// can name ("internal" means untyped), never in a hang or a leaked
// goroutine.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"dswp/internal/engine"
	"dswp/internal/failpoint"
	"dswp/internal/interp"
	"dswp/internal/workloads"
)

// Driver names.
const (
	Supervisor = "supervisor"
	Service    = "service"
)

// Options configures a soak.
type Options struct {
	// Seed drives every randomized choice (0 = 1).
	Seed uint64
	// Runs is the number of scenarios (0 = the driver's default: 200
	// supervisor runs, 8 service engine lifetimes).
	Runs int
	// Logf, when set, receives progress and failure lines.
	Logf func(format string, args ...any)
}

// Report is a soak's outcome. The contract held iff OK().
type Report struct {
	// Driver names the driver that ran.
	Driver string
	// Seed echoes the soak seed for reproduction.
	Seed uint64
	// Scenarios counts executed scenarios.
	Scenarios int
	// Aborted is true when ctx expired before Options.Runs scenarios ran.
	Aborted bool
	// Checks counts contract checks: one per supervisor run, one per
	// service request.
	Checks int
	// Correct counts checks whose final state matched the reference.
	Correct int
	// Recovered counts the Correct supervisor runs that survived an
	// injected failure (in-place retry, sequential resume, or durable
	// crash recovery).
	Recovered int
	// Typed counts checks that ended in a typed error: a canceled run, or
	// a request that was shed, timed out or failed by an injection.
	Typed int
	// ByClass histograms typed errors by engine.ErrorClass: those checks
	// ended with, and the attempt failures supervisor runs recovered from.
	ByClass map[string]int
	// ByMode histograms supervisor scenarios by fault mode and ByQueue
	// all scenarios by queue substrate, so a soak shows what it reached.
	ByMode  map[string]int
	ByQueue map[string]int
	// Replicated counts supervisor scenarios on a PS-DSWP replicated
	// pipeline; ReplicatedRecovered counts those that were Recovered.
	Replicated          int
	ReplicatedRecovered int
	// Triggered sums failpoint hits across service scenarios.
	Triggered map[string]int64
	// Violations lists every contract breach, each with its scenario tag.
	Violations []string

	mu   sync.Mutex // guards the counters while service clients run
	logf func(format string, args ...any)
}

// OK reports whether the soak upheld the contract.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos %s: %d scenarios, %d checks (seed %d): %d correct (%d recovered), %d typed errors",
		r.Driver, r.Scenarios, r.Checks, r.Seed, r.Correct, r.Recovered, r.Typed)
	if r.Aborted {
		b.WriteString(", aborted by deadline")
	}
	if r.Replicated > 0 {
		fmt.Fprintf(&b, ", %d replicated (%d recovered)", r.Replicated, r.ReplicatedRecovered)
	}
	for _, h := range []struct {
		name string
		m    map[string]int
	}{{"mode", r.ByMode}, {"queue", r.ByQueue}, {"class", r.ByClass}} {
		for _, k := range sortedKeys(h.m) {
			fmt.Fprintf(&b, "\n  %-9s %-26s %d", h.name, k, h.m[k])
		}
	}
	for _, k := range sortedKeys(r.Triggered) {
		fmt.Fprintf(&b, "\n  failpoint %-26s %d", k, r.Triggered[k])
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "\n  VIOLATION: %s", v)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// violate records a contract breach; callers hold r.mu or run alone.
func (r *Report) violate(tag, format string, args ...any) {
	v := fmt.Sprintf("seed=%d %s: %s", r.Seed, tag, fmt.Sprintf(format, args...))
	r.Violations = append(r.Violations, v)
	r.logf("chaos FAIL: %s", v)
}

// driver derives scenarios. scenario(seed, i) must be a pure function of
// its arguments, so a soak replays scenario for scenario.
type driver interface {
	scenario(seed uint64, i int) scenario
}

// scenario is one derived chaos scenario. String is its reproduction tag.
type scenario interface {
	String() string
	run(ctx context.Context, rep *Report)
}

func newDriver(name string) (driver, error) {
	switch name {
	case Supervisor:
		return newSupervisorDriver()
	case Service:
		return newServiceDriver()
	}
	return nil, fmt.Errorf("chaos: unknown driver %q (want %s or %s)", name, Supervisor, Service)
}

// Soak runs opts.Runs scenarios of the named driver and reports. ctx
// bounds the whole soak: when it expires the soak stops early with
// Report.Aborted set, and scenarios it cuts short score as canceled. Soak
// never panics on a contract violation; callers gate on Report.OK().
func Soak(ctx context.Context, driverName string, opts Options) *Report {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Runs == 0 {
		opts.Runs = 200
		if driverName == Service {
			opts.Runs = 8
		}
	}
	rep := &Report{Driver: driverName, Seed: opts.Seed, ByClass: map[string]int{},
		ByMode: map[string]int{}, ByQueue: map[string]int{}, Triggered: map[string]int64{},
		logf: func(string, ...any) {}}
	if opts.Logf != nil {
		rep.logf = opts.Logf
	}
	d, err := newDriver(driverName)
	if err != nil {
		rep.violate("setup", "%v", err)
		return rep
	}
	for i := 0; i < opts.Runs; i++ {
		if ctx.Err() != nil {
			rep.Aborted = true
			rep.logf("chaos: context expired after %d/%d scenarios", i, opts.Runs)
			break
		}
		sc := d.scenario(opts.Seed, i)
		sc.run(ctx, rep)
		rep.Scenarios++
		rep.logf("chaos: %s", sc)
	}
	return rep
}

// scenarioRNG is the stream scenario i of a soak draws from. Both
// arguments are spread by odd multipliers, so neighbouring seeds and
// neighbouring runs start far apart.
func scenarioRNG(seed uint64, i int) *workloads.RNG {
	return workloads.NewRNG(seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9)
}

// digestOf renders a final state the way the engine reports it.
func digestOf(res *interp.Result) string {
	return fmt.Sprintf("%016x", workloads.StateDigest(res))
}

// hangAfter bounds one contract check from outside: a run or request still
// going after it is a hang, the one failure the typed-error taxonomy
// cannot report about itself.
const hangAfter = 20 * time.Second

var errHang = errors.New("chaos: hang deadline")

// watched runs f under a context that expires after hangAfter and reports
// whether that deadline fired before f returned.
func watched[T any](ctx context.Context, f func(context.Context) T) (T, bool) {
	wctx, cancel := context.WithTimeoutCause(ctx, hangAfter, errHang)
	defer cancel()
	done := make(chan T, 1)
	go func() { done <- f(wctx) }()
	select {
	case out := <-done:
		return out, context.Cause(wctx) == errHang
	case <-time.After(hangAfter + hangAfter/2):
		var zero T
		return zero, true // f ignored its context as well
	}
}

// outcome is what one contract check observed.
type outcome struct {
	digest    string // final-state digest; empty when the check ended in an error
	class     string // engine.ErrorClass of that error
	err       string
	injected  bool // the error traces back to an armed failpoint
	recovered bool // the run survived an injected failure on the way
	hung      bool
}

func failure(err error) outcome {
	return outcome{class: engine.ErrorClass(err), err: err.Error(),
		injected: errors.Is(err, failpoint.ErrInjected)}
}

// check applies the contract to one outcome: the reference digest want,
// or a typed error where errOK allows one. An "internal" error is a
// violation unless an armed failpoint caused it. check reports whether
// the result was correct.
func (r *Report) check(tag, want string, o outcome, errOK bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Checks++
	switch {
	case o.hung:
		r.violate(tag, "hung past %v", hangAfter)
	case o.class == "":
		if o.digest != want {
			r.violate(tag, "wrong state: digest %s, sequential %s", o.digest, want)
			return false
		}
		r.Correct++
		if o.recovered {
			r.Recovered++
		}
		return true
	case o.class == "internal" && !o.injected:
		r.violate(tag, "untyped error: %s", o.err)
	case !errOK:
		r.violate(tag, "not recovered (%s): %s", o.class, o.err)
	default:
		r.Typed++
		r.ByClass[o.class]++
	}
	return false
}
