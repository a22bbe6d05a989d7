package failpoint

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Test-local sites. Registered once at package init like production sites.
var (
	tsBasic = New("failpoint/test/basic")
	tsNth   = New("failpoint/test/nth")
	tsProb  = New("failpoint/test/prob")
	tsPanic = New("failpoint/test/panic")
	tsSleep = New("failpoint/test/sleep")
)

func TestDisarmedReturnsNil(t *testing.T) {
	Reset()
	for i := 0; i < 100; i++ {
		if err := tsBasic.Fail(); err != nil {
			t.Fatalf("disarmed site injected: %v", err)
		}
	}
	if tsBasic.Triggers() != 0 {
		t.Fatalf("disarmed site counted triggers: %d", tsBasic.Triggers())
	}
}

func TestErrorEveryHit(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(tsBasic.Name(), "error(injected)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tsBasic.Fail(); !errors.Is(err, ErrInjected) {
			t.Fatalf("hit %d: got %v, want ErrInjected", i, err)
		}
	}
	if got := tsBasic.Triggers(); got != 5 {
		t.Fatalf("triggers = %d, want 5", got)
	}
	Disarm(tsBasic.Name())
	if err := tsBasic.Fail(); err != nil {
		t.Fatalf("after disarm: %v", err)
	}
}

func TestErrnoMapping(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(tsBasic.Name(), "error(ENOSPC):once"); err != nil {
		t.Fatal(err)
	}
	err := tsBasic.Fail()
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("got %v, want ENOSPC", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("injected errno must still wrap ErrInjected: %v", err)
	}
	// once: the second hit passes.
	if err := tsBasic.Fail(); err != nil {
		t.Fatalf("one-shot fired twice: %v", err)
	}
}

func TestNthAndEveryAndTimes(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(tsNth.Name(), "error(x):nth(3)"); err != nil {
		t.Fatal(err)
	}
	var fired []int
	for i := 1; i <= 6; i++ {
		if tsNth.Fail() != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("nth(3) fired at %v", fired)
	}

	Reset()
	if err := Enable(tsNth.Name(), "error(x):every(2):times(2)"); err != nil {
		t.Fatal(err)
	}
	fired = nil
	for i := 1; i <= 10; i++ {
		if tsNth.Fail() != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 4 {
		t.Fatalf("every(2):times(2) fired at %v", fired)
	}
}

func TestProbDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	run := func() []int {
		Reset()
		if err := Enable(tsProb.Name(), "error(x):prob(0.3,42)"); err != nil {
			t.Fatal(err)
		}
		var fired []int
		for i := 0; i < 200; i++ {
			if tsProb.Fail() != nil {
				fired = append(fired, i)
			}
		}
		return fired
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("prob(0.3) fired %d/200 times", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different schedules: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPanicAction(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(tsPanic.Name(), "panic(boom):once"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic action did not panic")
		}
	}()
	_ = tsPanic.Fail()
}

func TestSleepAction(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(tsSleep.Name(), "sleep(10ms):once"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := tsSleep.Fail(); err != nil {
		t.Fatalf("sleep action returned error: %v", err)
	}
	if d := time.Since(start); d < 8*time.Millisecond {
		t.Fatalf("sleep(10ms) returned after %v", d)
	}
}

func TestArmUnknownSite(t *testing.T) {
	if err := Enable("no/such/site", "error(x)"); err == nil {
		t.Fatal("arming an unregistered site must error")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate New did not panic")
		}
	}()
	New(tsBasic.Name())
}

func TestTriggersMap(t *testing.T) {
	Reset()
	defer Reset()
	if err := Enable(tsBasic.Name(), "error(x):every(2)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		_ = tsBasic.Fail()
	}
	m := Triggers()
	if m[tsBasic.Name()] != 2 {
		t.Fatalf("Triggers() = %v, want %s=2", m, tsBasic.Name())
	}
	if _, ok := m[tsNth.Name()]; ok {
		t.Fatalf("zero-trigger site leaked into map: %v", m)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "frobnicate(x)", "error(x):sometimes", "sleep(fast)",
		"error(x):nth(0)", "error(x):prob(2,1)", "error(x):once(3)",
		"error(x):nth(3", "error(x):prob(0.5,zebra)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// hits returns the 1-based hit numbers in [1,n] on which a fresh
// evaluator of spec triggers, counted hit by hit.
func hits(t *testing.T, spec string, n int64) []int64 {
	t.Helper()
	pol, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEval(pol)
	var out []int64
	for h := int64(1); h <= n; h++ {
		if ev.Hit() {
			out = append(out, h)
		}
	}
	return out
}

// TestEvalNextMatchesHit: a caller that jumps from trigger to trigger
// with Next sees exactly the schedule Hit produces hit by hit, random
// stream included.
func TestEvalNextMatchesHit(t *testing.T) {
	const n = 2000
	for _, spec := range []string{
		"panic:nth(700)", "sleep(1us):every(64)", "error(x):prob(0.02,7)",
		"error(x):every(5):prob(0.5,3)", "error(x):every(3):times(4)",
		"error(x):nth(12):every(4)", "error(x):nth(13):every(4)", "error(x)",
	} {
		pol, _ := Parse(spec)
		ev := NewEval(pol)
		var jumped []int64
		for h := ev.Next(0, n); h != math.MaxInt64; h = ev.Next(h, n) {
			jumped = append(jumped, h)
		}
		if want := hits(t, spec, n); !reflect.DeepEqual(jumped, want) {
			t.Errorf("%s: Next visits %v, Hit fires at %v", spec, jumped, want)
		}
	}
}

// TestEvalRunScoped: evaluators never touch the global registry or gate,
// and two evaluators of one policy share no hits, budget or random state.
func TestEvalRunScoped(t *testing.T) {
	Reset()
	pol, _ := Parse("error(x):prob(0.3,42):times(5)")
	a, b := NewEval(pol), NewEval(pol)
	var fa, fb []int64
	var wg sync.WaitGroup
	for _, c := range []struct {
		ev  *Eval
		out *[]int64
	}{{a, &fa}, {b, &fb}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := int64(1); h <= 500; h++ {
				if c.ev.Hit() {
					*c.out = append(*c.out, h)
				}
			}
		}()
	}
	wg.Wait()
	if len(fa) != 5 || !reflect.DeepEqual(fa, fb) {
		t.Fatalf("evaluators interfered: %v vs %v", fa, fb)
	}
	if armed.Load() != 0 {
		t.Fatal("a run-scoped evaluator armed the global gate")
	}
	if err := a.Act(context.Background(), "a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("default error %v does not wrap ErrInjected", err)
	}
}

// TestEvalSleepEndsOnCancel: a run-scoped sleep returns as soon as the
// run's context is done. The wait is bounded so a regression fails
// instead of hanging the package.
func TestEvalSleepEndsOnCancel(t *testing.T) {
	ev := NewEval(Policy{Action: ActSleep, Sleep: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ev.Act(ctx, "test") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("sleep returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an hour-long sleep ignored cancellation for 5s")
	}
}
