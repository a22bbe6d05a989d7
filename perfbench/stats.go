package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the middle sample, or the mean of the two middle samples.
// It is 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same rule as Python's statistics.quantiles(xs, n=4)
// (method "exclusive"), so spreads printed here match the ones computed
// over a set of runs. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// tailLadder lists the percentiles a tail is read at, lowest first.
// Whole percentiles keep the chosen rank close to n-10 for any sample
// count, so the tail does not jump when a run completes a few more or
// fewer operations.
var tailLadder = func() []float64 {
	var ps []float64
	for p := 50; p <= 99; p++ {
		ps = append(ps, float64(p))
	}
	return append(ps, 99.5, 99.9, 99.95, 99.99)
}()

// tail is a latency tail: the value at percentile P, with Beyond samples
// above its rank out of N.
type tail struct {
	P      float64
	Value  float64
	Beyond int
	N      int
}

// tailOf returns the highest percentile of xs that has at least ten
// samples beyond it (nearest-rank). With fewer than 21 samples no
// percentile qualifies and the median is returned with its smaller
// count, so the caller can print how thin the tail is.
func tailOf(xs []float64) tail {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return tail{}
	}
	rank := func(p float64) int {
		return max(int(math.Ceil(p/100*float64(n)))-1, 0)
	}
	best := tail{P: 50, Value: s[rank(50)], Beyond: n - 1 - rank(50), N: n}
	for _, p := range tailLadder {
		r := rank(p)
		if n-1-r < 10 {
			break
		}
		best = tail{P: p, Value: s[r], Beyond: n - 1 - r, N: n}
	}
	return best
}

// geomean is the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// pairedSpeedup is the geometric mean, over programs, of each program's
// median ratio seq[k]/pipe[k] between runs made back to back. Pairing
// cancels host drift that moves both runs of a pair alike. seq[i] and
// pipe[i] hold program i's samples; unequal lengths pair the common
// prefix.
func pairedSpeedup(seq, pipe [][]float64) float64 {
	var per []float64
	for i := range seq {
		n := min(len(seq[i]), len(pipe[i]))
		if n == 0 {
			continue
		}
		ratios := make([]float64, n)
		for k := 0; k < n; k++ {
			ratios[k] = seq[i][k] / pipe[i][k]
		}
		per = append(per, median(ratios))
	}
	return geomean(per)
}

// sumOfMedians adds each group's median: one pass over a suite, robust to
// an outlier in any single run.
func sumOfMedians(groups [][]float64) float64 {
	var s float64
	for _, g := range groups {
		s += median(g)
	}
	return s
}

// mean is the arithmetic mean; 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
