package obs

import (
	"fmt"
	"strings"
)

// FillDrain is the report's pipeline fill/drain breakdown. All values are
// nanoseconds.
type FillDrain struct {
	// Total is the whole run: earliest stage start to latest stage end.
	Total int64
	// Fill is start-up time: from the earliest stage start until the last
	// stage to touch a queue completed its first flow op — the window in
	// which the pipeline is still priming.
	Fill int64
	// Drain is wind-down time: from the earliest stage completion until
	// the latest — the window in which the pipeline is emptying.
	Drain int64
	// Steady is Total - Fill - Drain (clamped at zero).
	Steady int64
}

// ComputeFillDrain derives the fill/drain breakdown from stage metrics.
func ComputeFillDrain(m *Metrics) FillDrain {
	var fd FillDrain
	var startMin, endMin, endMax, flowMax int64 = -1, -1, -1, -1
	for i := 0; i < m.NumStages(); i++ {
		st := m.Stage(i)
		start, end, flow := Tick(st.StartTick), Tick(st.EndTick), Tick(st.FirstFlowTick)
		if start < 0 || end < 0 {
			continue
		}
		if startMin < 0 || start < startMin {
			startMin = start
		}
		if endMin < 0 || end < endMin {
			endMin = end
		}
		if end > endMax {
			endMax = end
		}
		if flow > flowMax {
			flowMax = flow
		}
	}
	if startMin < 0 {
		return fd
	}
	fd.Total = endMax - startMin
	if flowMax >= 0 {
		fd.Fill = flowMax - startMin
	}
	fd.Drain = endMax - endMin
	if fd.Fill > fd.Total {
		fd.Fill = fd.Total
	}
	if steady := fd.Total - fd.Fill - fd.Drain; steady > 0 {
		fd.Steady = steady
	}
	return fd
}

// Bottleneck names the stage that gates pipeline throughput: the one
// with the most busy time. ratio is that stage's busy time over the mean
// busy time of the other stages — 1.0 is a perfectly balanced pipeline,
// anything well above it says the named stage is worth replicating
// (PS-DSWP) if the planner allows it. Returns stage -1 when the metrics
// cover fewer than two stages or no stage did work.
func Bottleneck(m *Metrics) (stage int, ratio float64) {
	stage = -1
	if m.NumStages() < 2 {
		return stage, 0
	}
	var total, max int64
	for i := 0; i < m.NumStages(); i++ {
		busy := m.Stage(i).BusyTicks()
		total += busy
		if busy > max {
			max, stage = busy, i
		}
	}
	if stage < 0 || max == 0 {
		return -1, 0
	}
	rest := float64(total-max) / float64(m.NumStages()-1)
	if rest <= 0 {
		return stage, float64(max)
	}
	return stage, float64(max) / rest
}

// FormatReport renders the plain-text pipeline report: a stage
// utilization table, a queue pressure table, and the fill/drain
// breakdown, with times in nanoseconds. threadNames labels stages (index
// = thread id; missing entries fall back to "threadN").
func FormatReport(m *Metrics, threadNames []string) string {
	var sb strings.Builder
	sb.WriteString("pipeline report (times in ns)\n\n")

	name := func(i int) string {
		if i < len(threadNames) && threadNames[i] != "" {
			return threadNames[i]
		}
		return fmt.Sprintf("thread%d", i)
	}

	fmt.Fprintf(&sb, "%-5s %-22s %12s %8s %8s %12s %12s %12s %6s\n",
		"stage", "fn", "instrs", "iters", "flows", "busy", "blk-full", "blk-empty", "util%")
	for i := 0; i < m.NumStages(); i++ {
		st := m.Stage(i)
		fmt.Fprintf(&sb, "%-5d %-22s %12d %8d %8d %12d %12d %12d %5.1f%%\n",
			i, name(i), st.Instrs, st.Iterations, st.Produces+st.Consumes,
			st.BusyTicks(), st.StallFullTicks, st.StallEmptyTicks,
			100*st.Utilization())
	}

	fmt.Fprintf(&sb, "\n%-5s %10s %10s %9s %16s %16s\n",
		"queue", "produces", "consumes", "hwm/cap", "stall-full", "stall-empty")
	for q := 0; q < m.NumQueues(); q++ {
		qm := m.Queue(q)
		if qm.Produces == 0 && qm.Consumes == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%-5d %10d %10d %5d/%-3d %7dx %7d %7dx %7d\n",
			q, qm.Produces, qm.Consumes, qm.HighWater, qm.Cap,
			qm.StallFull, qm.StallFullTicks, qm.StallEmpty, qm.StallEmptyTicks)
	}

	fd := ComputeFillDrain(m)
	fmt.Fprintf(&sb, "\nfill/drain breakdown (ns): total %d = fill %d + steady %d + drain %d\n",
		fd.Total, fd.Fill, fd.Steady, fd.Drain)
	if bs, ratio := Bottleneck(m); bs >= 0 {
		fmt.Fprintf(&sb, "bottleneck: stage %d (%s), %.1f%% busy, %.2fx the mean of the "+
			"other stages — replicate this stage (PS-DSWP) if the planner allows it\n",
			bs, name(bs), 100*m.Stage(bs).Utilization(), ratio)
	}
	if bad := m.CheckConsistency(); len(bad) > 0 {
		fmt.Fprintf(&sb, "\nWARNING: metrics inconsistencies: %s\n", strings.Join(bad, "; "))
	}
	return sb.String()
}
