// Command perfbench is the repository's benchmark. One process sets up
// and runs one of three workloads and prints every metric by name and
// unit, ending with a one-line JSON result:
//
//	loops  the paper's claim: each suite loop run sequentially on the
//	       interpreter and pipelined on the goroutine runtime, paired
//	serve  dswpd's hot path: supervised requests on cached pipelines,
//	       nproc closed-loop clients through the HTTP handler in memory
//	churn  dswpd's miss path: concurrent-mode requests whose seeded
//	       configs overflow the compiled-pipeline cache
//
// Usage:
//
//	perfbench --workload loops --seed 1 --seconds 20 --trace 0
//
// --workload all runs the three in turn in one process, each printing its
// own result; rss_peak_mb is then the process's peak so far.
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no tracing. With --trace 1 it holds the per-layer ledger: half the time
// is an untraced window, the other half replays the same seeded
// operations one layer call at a time. NOTES.md says why each workload
// exists and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times a --trace 0 run sets up; setup_s is the
// median, so one slow set-up (a cold page cache, a GC) does not move it.
const setupReps = 3

// metric is one printed measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report is what one measured window returns.
type report struct {
	metrics []metric
	// notes are human-readable lines printed before the result, such as
	// per-program rows and which percentile a tail was read at.
	notes []string
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// bench is a set-up workload.
type bench interface {
	// measure runs the untraced timed window for d and returns the
	// workload's end-to-end metrics other than setup_s, ok_share and
	// rss_peak_mb, which main adds.
	measure(d time.Duration) (report, error)
	// ledger runs an untraced window and a traced replay, d/2 each, and
	// returns the per-layer metrics.
	ledger(d time.Duration) (report, error)
	gate() *gate
	close()
}

var setups = map[string]func(seed int64) (bench, error){
	"loops": setupLoops,
	"serve": func(seed int64) (bench, error) { return setupServe(seed, false) },
	"churn": func(seed int64) (bench, error) { return setupServe(seed, true) },
}

// workloadOrder is what --workload all runs, one after another in this
// process.
var workloadOrder = []string{"loops", "serve", "churn"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "loops, serve, churn, or all three in turn")
	seed := flag.Int64("seed", 1, "seed for operation order and request configs")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	}
	_, known := setups[names[0]]
	if !known || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload loops|serve|churn|all --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	for _, name := range names {
		if err := runWorkload(name, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
	}
	return 0
}

// runWorkload sets up one workload, measures it for seconds and prints
// its result.
func runWorkload(name string, seed int64, seconds int, traced bool) error {
	cpu0 := readCPUTimes()
	reps := setupReps
	if traced {
		reps = 1 // setup_s is an end-to-end metric; the ledger does not print it
	}
	var (
		b          bench
		setupTimes []float64
	)
	for i := 0; i < reps; i++ {
		if b != nil {
			b.close()
		}
		start := time.Now()
		nb, err := setups[name](seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		b = nb
	}
	defer b.close()
	runtime.GC()

	d := time.Duration(seconds) * time.Second
	var (
		rep report
		err error
	)
	if traced {
		rep, err = b.ledger(d)
	} else {
		rep, err = b.measure(d)
	}
	if err != nil {
		return err
	}
	attempted, ok := b.gate().counts()
	if attempted == 0 {
		return fmt.Errorf("no operation completed in %v", d)
	}
	if !traced {
		rep.add("setup_s", median(setupTimes), "s")
		rep.add("ok_share", b.gate().okShare(), "ratio")
		rep.add("rss_peak_mb", peakRSSMiB(), "MiB")
		rep.note("setup_s over %d set-ups: %.3f", len(setupTimes), setupTimes)
	}
	st := newStamp(name, seed, seconds, traced, stealShare(cpu0, readCPUTimes()))
	return printResult(st, rep, attempted, ok)
}

// printResult prints the stamp, the notes, one line per metric, and last
// the JSON result line.
func printResult(st stamp, rep report, attempted, ok int) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ok == attempted, Attempted: attempted, Failed: attempted - ok,
		Metrics: map[string]value{}}
	for _, m := range rep.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		if _, dup := out.Metrics[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	stampJSON, err := json.Marshal(st)
	if err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", stampJSON)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, m := range rep.metrics {
		fmt.Printf("metric %-28s %14.6f %s\n", m.Name, m.Value, m.Unit)
	}
	if !out.Correct {
		fmt.Printf("FAILED %d of %d operations did not match the interpreter's reference\n", out.Failed, attempted)
	}
	_, err = fmt.Println(string(line))
	return err
}
