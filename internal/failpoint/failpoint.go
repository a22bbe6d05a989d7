// Package failpoint is the one fault-injection system: deterministic,
// seeded policies evaluated at global named sites compiled into the
// service layers' IO and lifecycle paths (armed at run time, provably
// near-zero-cost when disarmed), or by run-scoped evaluators (Eval) that
// one pipeline run owns, outside the registry.
//
// A site is declared once, at package scope, next to the code it guards:
//
//	var fpWrite = failpoint.New("ckptstore/file/write")
//
// and consulted on the hot path:
//
//	if err := fpWrite.Fail(); err != nil {
//	    return err // the injected fault
//	}
//
// When nothing is armed anywhere in the process, Fail is a single atomic
// load of a package-level gate and a predictable branch — no map lookup,
// no allocation, no time read (BenchmarkFailDisabled pins this). Arming
// any site flips the gate; each armed site then evaluates its own policy.
//
// Site names follow `<package>/<component>/<operation>` (lowercase,
// hyphenated words). The registry enforces uniqueness at init time, and
// TestFailpointSiteHygiene additionally scans the source tree so every
// declared site is exercised by at least one test.
//
// Policies are deterministic: probability triggers draw from a per-policy
// xorshift64* stream seeded explicitly, so a chaos schedule replays
// bit-for-bit from its seed. The textual grammar (Parse) is
//
//	ACTION[:TRIGGER[:TRIGGER...]]
//
//	ACTION   = error(NAME) | panic(MSG) | sleep(DUR)
//	TRIGGER  = nth(N) | every(N) | prob(P,SEED) | once | times(N)
//
// e.g. "error(ENOSPC):nth(3)", "sleep(2ms):every(16)",
// "error(injected):prob(0.25,7)", "panic(boom):once". With no trigger
// term the policy fires on every hit. error(ENOSPC) and error(EIO) map
// onto the real syscall errnos so errors.Is sees the fault exactly as it
// would the genuine condition; every injected error also wraps
// ErrInjected so harnesses can tell their own faults from real ones.
package failpoint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// ErrInjected is wrapped by every error a failpoint injects (including
// the errno-mapped ones), so callers can distinguish injected faults from
// organically occurring errors with errors.Is.
var ErrInjected = errors.New("failpoint: injected")

// armed counts sites with an active policy, process-wide. Zero means
// every Fail() call in the process is a single atomic load.
var armed atomic.Int32

// registry maps site names to sites; guarded by regMu. Registration
// happens at package init; lookups only on the (cold) control path.
var (
	regMu    sync.Mutex
	registry = map[string]*Site{}
)

// Site is one named injection point. Declare at package scope with New;
// the zero value is invalid.
type Site struct {
	name     string
	pol      atomic.Pointer[policy]
	hits     atomic.Int64 // Fail() evaluations while the site was armed
	triggers atomic.Int64 // faults actually injected
}

// New registers a site under a unique name; it panics on a duplicate —
// two code paths sharing one name would make schedules ambiguous.
func New(name string) *Site {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("failpoint: duplicate site %q", name))
	}
	s := &Site{name: name}
	registry[name] = s
	return s
}

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }

// Fail consults the site. Disarmed (the common case) it returns nil after
// one atomic load of the package gate. Armed, it evaluates the policy:
// a non-trigger returns nil; a trigger sleeps, panics, or returns the
// configured error. Sleep-action triggers return nil after sleeping, so
// call sites may ignore the result where only latency faults make sense.
func (s *Site) Fail() error {
	if armed.Load() == 0 {
		return nil
	}
	p := s.pol.Load()
	if p == nil {
		return nil
	}
	return s.evaluate(p)
}

// evaluate runs the armed policy for one hit. Split from Fail so the
// disarmed path stays small enough to inline.
func (s *Site) evaluate(p *policy) error {
	if !p.fires(s.hits.Add(1)) {
		return nil
	}
	s.triggers.Add(1)
	return p.act(context.Background(), "failpoint "+s.name)
}

// Triggers reports how many faults the site has injected since the last
// Reset (not merely evaluated) — the count /metrics surfaces.
func (s *Site) Triggers() int64 { return s.triggers.Load() }

// Action selects what a triggered policy does.
type Action int

const (
	// ActError makes Fail return Policy.Err.
	ActError Action = iota
	// ActPanic panics with the configured message.
	ActPanic
	// ActSleep sleeps for the configured duration, then returns nil.
	ActSleep
)

// Policy is a site's armed behavior: one action plus trigger conditions.
// Trigger fields compose with AND over the ones that are set; a policy
// with none set fires on every hit.
type Policy struct {
	Action Action
	// Err is returned by ActError triggers. Arm fills a default wrapping
	// ErrInjected when nil.
	Err error
	// Msg is the ActPanic message.
	Msg string
	// Sleep is the ActSleep duration.
	Sleep time.Duration

	// Nth fires only on exactly the Nth hit (1-based).
	Nth int64
	// Every fires on every Every-th hit.
	Every int64
	// Prob fires each hit with this probability, drawn deterministically
	// from a xorshift64* stream seeded with Seed.
	Prob float64
	// Seed seeds the Prob stream (0 is promoted to 1).
	Seed uint64
	// Times bounds total triggers; 1 makes the policy one-shot.
	Times int64
}

// policy is the armed (internal) form: Policy plus the mutable per-arm
// RNG and budget state.
type policy struct {
	Policy
	rng   atomic.Uint64
	fired atomic.Int64
}

// newPolicy arms pol: a default injected error for a bare error action
// (where names the site) and the seeded xorshift64* stream.
func newPolicy(pol Policy, where string) *policy {
	if pol.Action == ActError && pol.Err == nil {
		pol.Err = fmt.Errorf("%w at %s", ErrInjected, where)
	}
	p := &policy{Policy: pol}
	seed := pol.Seed
	if seed == 0 {
		seed = 1
	}
	p.rng.Store(seed)
	return p
}

// act performs a triggered policy's action. A sleep returns nil after
// Sleep or as soon as ctx is done, whichever comes first; a panic carries
// where and Msg; an error action returns Err.
func (p *policy) act(ctx context.Context, where string) error {
	switch p.Action {
	case ActSleep:
		t := time.NewTimer(p.Sleep)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
		return nil
	case ActPanic:
		panic(fmt.Sprintf("%s: %s", where, p.Msg))
	default:
		return p.Err
	}
}

// fires reports whether hit number `hit` injects a fault: every trigger
// condition holds and the Times budget is not spent.
func (p *policy) fires(hit int64) bool {
	if p.Nth > 0 && hit != p.Nth {
		return false
	}
	if p.Every > 0 && hit%p.Every != 0 {
		return false
	}
	if p.Prob > 0 && p.Prob < 1 {
		// xorshift64*: the repo-wide deterministic generator.
		x := p.rng.Load()
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		p.rng.Store(x)
		draw := float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
		if draw >= p.Prob {
			return false
		}
	}
	return p.Times <= 0 || p.fired.Add(1) <= p.Times
}

// Arm activates a policy on the named site, replacing any previous one
// (counters keep accumulating). Unknown names error: a schedule naming a
// site that was never compiled in is a configuration bug, not a no-op.
func Arm(name string, pol Policy) error {
	regMu.Lock()
	s := registry[name]
	regMu.Unlock()
	if s == nil {
		return fmt.Errorf("failpoint: unknown site %q", name)
	}
	if s.pol.Swap(newPolicy(pol, name)) == nil {
		armed.Add(1)
	}
	return nil
}

// Enable parses spec ("error(ENOSPC):nth(3)", see the package grammar)
// and arms it on the named site.
func Enable(name, spec string) error {
	pol, err := Parse(spec)
	if err != nil {
		return err
	}
	return Arm(name, pol)
}

// Disarm deactivates the named site (counters are kept). Unknown or
// already-disarmed names are no-ops.
func Disarm(name string) {
	regMu.Lock()
	s := registry[name]
	regMu.Unlock()
	if s == nil {
		return
	}
	if s.pol.Swap(nil) != nil {
		armed.Add(-1)
	}
}

// Reset disarms every site and zeroes all counters — the state a test or
// chaos scenario restores on exit so the next one starts clean.
func Reset() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, s := range registry {
		if s.pol.Swap(nil) != nil {
			armed.Add(-1)
		}
		s.hits.Store(0)
		s.triggers.Store(0)
	}
}

// Eval is a run-scoped evaluation of one Policy: the same triggers,
// actions and seeded stream as a global site, with its own hit count,
// Times budget and random state, outside the registry and the global
// gate. It is safe for concurrent use.
type Eval struct {
	p    *policy
	hits atomic.Int64
}

// NewEval builds a fresh run-scoped evaluator for pol.
func NewEval(pol Policy) *Eval { return &Eval{p: newPolicy(pol, "a run-scoped site")} }

// Hit counts one hit and reports whether the policy triggers on it.
func (ev *Eval) Hit() bool { return ev.p.fires(ev.hits.Add(1)) }

// Next is for callers that count hits themselves: it returns the first
// hit number in (after, limit] on which the policy triggers, or
// math.MaxInt64 when none does. It draws the random stream exactly as
// Hit would for every hit it passes over, so a caller that jumps from
// trigger to trigger sees the schedule a hit-by-hit caller would.
func (ev *Eval) Next(after, limit int64) int64 {
	p, step := ev.p, int64(1)
	if p.Nth > 0 {
		after, limit = max(after, p.Nth-1), min(limit, p.Nth)
	} else if p.Every > 0 {
		after, step = after/p.Every*p.Every, p.Every
	}
	for h := after + step; h <= limit; h += step {
		if p.fires(h) {
			return h
		}
		if p.Times > 0 && p.fired.Load() >= p.Times {
			break
		}
	}
	return math.MaxInt64
}

// Act performs the triggered action: a sleep that ends early when ctx is
// done (returning nil), a panic naming where, or the policy's error.
func (ev *Eval) Act(ctx context.Context, where string) error {
	return ev.p.act(ctx, where)
}

// Sites lists every registered site name, sorted.
func Sites() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Triggers reports per-site injected-fault counts, omitting zeroes —
// the map /metrics and the chaos report surface.
func Triggers() map[string]int64 {
	regMu.Lock()
	defer regMu.Unlock()
	out := map[string]int64{}
	for name, s := range registry {
		if n := s.triggers.Load(); n > 0 {
			out[name] = n
		}
	}
	return out
}

// Parse compiles the textual policy grammar; see the package comment.
func Parse(spec string) (Policy, error) {
	var pol Policy
	terms := strings.Split(spec, ":")
	if len(terms) == 0 || terms[0] == "" {
		return pol, fmt.Errorf("failpoint: empty spec %q", spec)
	}
	kind, arg, err := splitTerm(terms[0])
	if err != nil {
		return pol, err
	}
	switch kind {
	case "error":
		pol.Action = ActError
		pol.Err = namedError(arg)
	case "panic":
		pol.Action = ActPanic
		pol.Msg = arg
	case "sleep":
		pol.Action = ActSleep
		d, derr := time.ParseDuration(arg)
		if derr != nil {
			return pol, fmt.Errorf("failpoint: sleep(%s): %v", arg, derr)
		}
		pol.Sleep = d
	default:
		return pol, fmt.Errorf("failpoint: unknown action %q in %q", kind, spec)
	}
	for _, t := range terms[1:] {
		kind, arg, err := splitTerm(t)
		if err != nil {
			return pol, err
		}
		switch kind {
		case "nth":
			if pol.Nth, err = parseCount(kind, arg); err != nil {
				return pol, err
			}
		case "every":
			if pol.Every, err = parseCount(kind, arg); err != nil {
				return pol, err
			}
		case "times":
			if pol.Times, err = parseCount(kind, arg); err != nil {
				return pol, err
			}
		case "once":
			if arg != "" {
				return pol, fmt.Errorf("failpoint: once takes no argument")
			}
			pol.Times = 1
		case "prob":
			parts := strings.SplitN(arg, ",", 2)
			p, perr := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
			if perr != nil || p <= 0 || p > 1 {
				return pol, fmt.Errorf("failpoint: prob(%s): want (0,1]", arg)
			}
			pol.Prob = p
			if len(parts) == 2 {
				seed, serr := strconv.ParseUint(strings.TrimSpace(parts[1]), 10, 64)
				if serr != nil {
					return pol, fmt.Errorf("failpoint: prob(%s): bad seed", arg)
				}
				pol.Seed = seed
			}
		default:
			return pol, fmt.Errorf("failpoint: unknown trigger %q in %q", kind, spec)
		}
	}
	return pol, nil
}

// splitTerm parses "kind(arg)" or a bare "kind".
func splitTerm(t string) (kind, arg string, err error) {
	t = strings.TrimSpace(t)
	open := strings.IndexByte(t, '(')
	if open < 0 {
		return t, "", nil
	}
	if !strings.HasSuffix(t, ")") {
		return "", "", fmt.Errorf("failpoint: malformed term %q", t)
	}
	return t[:open], t[open+1 : len(t)-1], nil
}

func parseCount(kind, arg string) (int64, error) {
	n, err := strconv.ParseInt(arg, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("failpoint: %s(%s): want a positive integer", kind, arg)
	}
	return n, nil
}

// namedError maps well-known error names onto real errno values so
// injected faults take exactly the code paths the genuine condition
// would; anything else becomes a generic injected error carrying the
// name. Every result wraps ErrInjected.
func namedError(name string) error {
	switch strings.ToUpper(name) {
	case "ENOSPC":
		return fmt.Errorf("%w: %w", ErrInjected, syscall.ENOSPC)
	case "EIO":
		return fmt.Errorf("%w: %w", ErrInjected, syscall.EIO)
	case "", "INJECTED":
		return ErrInjected
	default:
		return fmt.Errorf("%w: %s", ErrInjected, name)
	}
}
