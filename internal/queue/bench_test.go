package queue

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkQueueChannelVsRing is the produce/consume microbenchmark behind
// the PR's headline number: one producer goroutine streams b.N values to the
// benchmark goroutine through a single queue, sweeping implementation ×
// capacity × batch size × GOMAXPROCS. ns/op is ns per value transferred.
func BenchmarkQueueChannelVsRing(b *testing.B) {
	procs := []int{1, 2, runtime.NumCPU()}
	if procs[2] <= 2 {
		procs = procs[:2]
	}
	for _, kind := range kinds {
		for _, capacity := range []int{1, 8, 32, 256} {
			for _, batch := range []int{1, 8, 64} {
				for _, p := range procs {
					name := fmt.Sprintf("kind=%s/cap=%d/batch=%d/procs=%d", kind, capacity, batch, p)
					b.Run(name, func(b *testing.B) {
						benchPair(b, kind, capacity, batch, p)
					})
				}
			}
		}
	}
}

func benchPair(b *testing.B, kind Kind, capacity, batch, procs int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	q := New(kind, capacity)
	done := make(chan struct{})
	defer close(done)
	total := b.N
	go func() {
		buf := make([]int64, batch)
		for sent := 0; sent < total; {
			n := batch
			if n > total-sent {
				n = total - sent
			}
			for i := 0; i < n; i++ {
				buf[i] = int64(sent + i)
			}
			k := q.TryProduceN(buf[:n])
			for _, v := range buf[k:n] {
				if !q.Produce(v, done) {
					return
				}
			}
			sent += n
		}
		q.Publish() // the last partial batch
	}()
	buf := make([]int64, batch)
	b.ResetTimer()
	for got := 0; got < total; {
		n := batch
		if n > total-got {
			n = total - got
		}
		k := q.TryConsumeN(buf[:n])
		if k == 0 {
			if _, ok := q.Consume(done); !ok {
				b.Fatal("consume canceled")
			}
			k = 1
		}
		got += k
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "vals/s")
}
