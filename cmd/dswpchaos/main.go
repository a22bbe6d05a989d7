// Command dswpchaos runs the seeded chaos soak (internal/chaos) from the
// shell. The supervisor driver soaks supervised pipeline runs under
// queue faults, stage panics, stalls, cancellation and crash recovery;
// the service driver soaks live in-process engines under failpoint
// schedules. Every check must end in the sequential state or a typed
// error. Exit status 1 means a contract violation; the printed seed and
// the scenario tag replay it.
//
//	dswpchaos -driver supervisor -seed 20250806 -timeout 30s
//	dswpchaos -driver service -seed 20260808 -runs 8 -v
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"dswp/internal/chaos"
)

func main() {
	var (
		driver  = flag.String("driver", "all", "soak driver: supervisor | service | all")
		seed    = flag.Uint64("seed", 0, "soak seed (0 = derive from the clock, printed for replay)")
		runs    = flag.Int("runs", 0, "scenarios per driver (0 = driver default: supervisor 200, service 8)")
		timeout = flag.Duration("timeout", 0, "wall-clock bound on each driver's soak; an expired soak stops early (0 = none)")
		verbose = flag.Bool("v", false, "per-scenario progress on stderr")
	)
	flag.Parse()

	drivers := []string{*driver}
	switch *driver {
	case chaos.Supervisor, chaos.Service:
	case "all":
		drivers = []string{chaos.Supervisor, chaos.Service}
	default:
		fmt.Fprintf(os.Stderr, "dswpchaos: unknown -driver %q (want supervisor, service or all)\n", *driver)
		os.Exit(2)
	}
	if *seed == 0 {
		*seed = uint64(time.Now().UnixNano())
	}
	opts := chaos.Options{Seed: *seed, Runs: *runs}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dswpchaos: "+format+"\n", args...)
		}
	}
	fmt.Printf("dswpchaos: seed %d\n", *seed)
	failed := false
	for _, d := range drivers {
		rep := soak(d, *timeout, opts)
		fmt.Println(rep)
		if !rep.OK() {
			fmt.Fprintf(os.Stderr, "dswpchaos: %s: %d violations (replay with -driver %s -seed %d)\n",
				d, len(rep.Violations), d, *seed)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// soak runs one driver, bounded by timeout when it is positive.
func soak(driver string, timeout time.Duration, opts chaos.Options) *chaos.Report {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return chaos.Soak(ctx, driver, opts)
}
