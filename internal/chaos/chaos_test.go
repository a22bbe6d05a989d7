package chaos

import (
	"context"
	"testing"
	"time"

	"dswp/internal/failpoint"
)

// TestSoakPinnedSeed is the in-tree slice of the CI supervisor soak: a
// pinned seed, every fault mode and both queue substrates reached,
// replicated pipelines run and recovered, and the full contract asserted.
func TestSoakPinnedSeed(t *testing.T) {
	runs := 60
	if testing.Short() {
		runs = 15
	}
	rep := Soak(context.Background(), Supervisor, Options{Seed: 20250806, Runs: runs, Logf: t.Logf})
	t.Log(rep)
	if !rep.OK() {
		t.Fatalf("chaos contract violated: %s", rep)
	}
	if rep.Scenarios != runs || rep.Checks != runs {
		t.Fatalf("executed %d scenarios, %d checks; want %d", rep.Scenarios, rep.Checks, runs)
	}
	if rep.Correct+rep.Typed != rep.Checks {
		t.Fatalf("outcome counts %d+%d do not partition %d checks", rep.Correct, rep.Typed, rep.Checks)
	}
	if rep.Recovered == 0 {
		t.Fatal("no run exercised recovery; scenario mix is broken")
	}
	if len(rep.ByQueue) != 2 {
		t.Fatalf("soak did not reach both queue substrates: %v", rep.ByQueue)
	}
	if !testing.Short() {
		for _, m := range modeNames {
			if rep.ByMode[m] == 0 {
				t.Fatalf("no run exercised mode %q: %v", m, rep.ByMode)
			}
		}
		if rep.Replicated == 0 || rep.ReplicatedRecovered == 0 {
			t.Fatalf("replicated pipelines: %d run, %d recovered; want >= 1 each",
				rep.Replicated, rep.ReplicatedRecovered)
		}
	}
}

// TestServiceChaosSoak is the in-tree copy of the CI service soak: >= 200
// requests of concurrent mixed traffic across eight engine lifetimes
// under a pinned failpoint schedule, with zero hangs, wrong answers or
// untyped errors, an empty checkpoint store after every drain, and no
// leaked goroutines.
func TestServiceChaosSoak(t *testing.T) {
	rep := Soak(context.Background(), Service, Options{Seed: 20260808, Runs: 8, Logf: t.Logf})
	t.Log(rep)
	if !rep.OK() {
		t.Fatal("chaos contract violated")
	}
	if rep.Checks < 200 {
		t.Fatalf("soak served %d requests, want >= 200", rep.Checks)
	}
	if rep.Correct == 0 {
		t.Fatal("no request completed cleanly — the schedule is degenerate")
	}
	if len(rep.ByQueue) != 2 {
		t.Fatalf("soak did not reach both queue substrates: %v", rep.ByQueue)
	}
	total := int64(0)
	for _, n := range rep.Triggered {
		total += n
	}
	if total == 0 {
		t.Fatal("no failpoint triggered under the pinned seed")
	}
	if got := failpoint.Triggers(); len(got) != 0 {
		t.Fatalf("failpoints still armed after the soak: %v", got)
	}
}

// TestSoakDeterministicOutcomes derives each driver's schedule without
// running it: the same seed must give the same scenario tags, and another
// seed different ones.
func TestSoakDeterministicOutcomes(t *testing.T) {
	for _, name := range []string{Supervisor, Service} {
		t.Run(name, func(t *testing.T) {
			d, err := newDriver(name)
			if err != nil {
				t.Fatal(err)
			}
			tags := func(seed uint64) []string {
				var out []string
				for i := 0; i < 12; i++ {
					out = append(out, d.scenario(seed, i).String())
				}
				return out
			}
			a, b, c := tags(7), tags(7), tags(8)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("scenario %d differs under one seed:\n%s\n%s", i, a[i], b[i])
				}
				if a[i] == c[i] {
					t.Fatalf("scenario %d is the same under seeds 7 and 8:\n%s", i, a[i])
				}
			}
		})
	}
}

// TestSoakBudgetTruncates: a soak under an expiring context stops early,
// marks the report aborted, and still upholds the contract for the
// scenarios it ran (scenarios cut short score as typed errors, never as
// not-recovered).
func TestSoakBudgetTruncates(t *testing.T) {
	for _, name := range []string{Supervisor, Service} {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			defer cancel()
			rep := Soak(ctx, name, Options{Seed: 20260806, Runs: 10000, Logf: t.Logf})
			if !rep.Aborted || rep.Scenarios >= 10000 {
				t.Fatalf("soak under a 300ms deadline: aborted=%v scenarios=%d", rep.Aborted, rep.Scenarios)
			}
			if !rep.OK() {
				t.Fatalf("aborted soak violated the contract: %s", rep)
			}
		})
	}
}

// TestSoakExternalContext: an already-expired context runs nothing and
// gives an aborted report that upholds the contract.
func TestSoakExternalContext(t *testing.T) {
	for _, name := range []string{Supervisor, Service} {
		t.Run(name, func(t *testing.T) {
			done, cancel := context.WithCancel(context.Background())
			cancel()
			rep := Soak(done, name, Options{Seed: 1, Runs: 5})
			if !rep.Aborted || rep.Scenarios != 0 {
				t.Fatalf("pre-expired context: aborted=%v scenarios=%d, want true/0", rep.Aborted, rep.Scenarios)
			}
			if !rep.OK() {
				t.Fatalf("pre-expired soak violated the contract: %s", rep)
			}
		})
	}
}
