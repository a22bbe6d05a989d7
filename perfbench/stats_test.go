package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9, 2, 7}, 1.625, 3.5, 8.0},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{10, 20, 30}, 10, 20, 30},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting is exercised
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{1000, 99, 10}, // p99.5 would leave 5
		{200, 95, 10},  // p96 would leave 8
		{137, 92, 10},  // whole percentiles track n-10 closely
		{100000, 99.99, 10},
		{21, 52, 10}, // p53 would leave 9
	} {
		tl := tailOf(seq(c.n))
		if tl.P != c.p || tl.Beyond != c.beyond || tl.N != c.n {
			t.Errorf("n=%d: tail p%g with %d beyond, want p%g with %d", c.n, tl.P, tl.Beyond, c.p, c.beyond)
		}
		if want := float64(c.n - c.beyond); tl.Value != want {
			t.Errorf("n=%d: tail value %v, want %v", c.n, tl.Value, want)
		}
	}
	// Too few samples for any percentile to keep ten beyond: the median
	// comes back with its smaller count, so the caller can say so.
	if tl := tailOf(seq(11)); tl.P != 50 || tl.Beyond != 5 {
		t.Errorf("n=11: tail p%g with %d beyond, want p50 with 5", tl.P, tl.Beyond)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 4, 16}); !near(got, 4) {
		t.Errorf("geomean = %v, want 4", got)
	}
	if got := geomean(nil); got != 0 {
		t.Errorf("geomean(nil) = %v, want 0", got)
	}
}

func TestPairedSpeedup(t *testing.T) {
	// Program 0 is twice as fast pipelined in every pair, though the host
	// slowed both runs of the last pair fourfold; program 1 is half as
	// fast. Pairing removes the drift; the geomean of 2 and 0.5 is 1.
	seq := [][]float64{{10, 10, 40}, {3, 3, 3}}
	pipe := [][]float64{{5, 5, 20}, {6, 6, 6}}
	if got := pairedSpeedup(seq, pipe); !near(got, 1) {
		t.Errorf("pairedSpeedup = %v, want 1", got)
	}
	// The median ratio, not the ratio of medians: one pair where the
	// pipeline stalled does not move the result.
	seq = [][]float64{{9, 9, 9, 9, 9}}
	pipe = [][]float64{{3, 3, 3, 90, 3}}
	if got := pairedSpeedup(seq, pipe); !near(got, 3) {
		t.Errorf("pairedSpeedup with one stalled pair = %v, want 3", got)
	}
}

func TestSumOfMedians(t *testing.T) {
	if got := sumOfMedians([][]float64{{1, 2, 100}, {5}}); !near(got, 7) {
		t.Errorf("sumOfMedians = %v, want 7", got)
	}
}
