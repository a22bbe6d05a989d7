package queue

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkQueueChannelVsRing is the produce/consume microbenchmark: one
// producer goroutine streams b.N values to the benchmark goroutine through
// a single queue with scalar ops, as the runtime's stage loop moves them,
// sweeping implementation × capacity × GOMAXPROCS. ns/op is ns per value
// transferred.
func BenchmarkQueueChannelVsRing(b *testing.B) {
	procs := []int{1, 2, runtime.NumCPU()}
	if procs[2] <= 2 {
		procs = procs[:2]
	}
	for _, kind := range kinds {
		for _, capacity := range []int{1, 8, 32, 256} {
			for _, p := range procs {
				name := fmt.Sprintf("kind=%s/cap=%d/procs=%d", kind, capacity, p)
				b.Run(name, func(b *testing.B) {
					benchPair(b, kind, capacity, p)
				})
			}
		}
	}
}

func benchPair(b *testing.B, kind Kind, capacity, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	q := New(kind, capacity)
	done := make(chan struct{})
	defer close(done)
	total := int64(b.N)
	go func() {
		for v := int64(0); v < total; v++ {
			if !q.TryProduce(v) && !q.Produce(v, done) {
				return
			}
		}
		q.Publish() // the last partial batch
	}()
	b.ResetTimer()
	for got := int64(0); got < total; got++ {
		if _, ok := q.TryConsume(); !ok {
			if _, ok := q.Consume(done); !ok {
				b.Fatal("consume canceled")
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vals/s")
}
