package queue

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

var kinds = []Kind{KindChannel, KindRing}

func TestKindString(t *testing.T) {
	if KindChannel.String() != "channel" || KindRing.String() != "ring" {
		t.Fatalf("bad Kind strings: %v %v", KindChannel, KindRing)
	}
	for _, s := range []string{"channel", "chan", "", "ring"} {
		if _, err := ParseKind(s); err != nil {
			t.Fatalf("ParseKind(%q): %v", s, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatalf("ParseKind(bogus) should fail")
	}
}

// TestExactCapacity checks the logical capacity is enforced exactly, even
// when the ring rounds its buffer up to a power of two. Len counts
// published values only, so each end publishes before it is read.
func TestExactCapacity(t *testing.T) {
	for _, kind := range kinds {
		for _, capacity := range []int{1, 2, 3, 5, 8, 13, 32} {
			q := New(kind, capacity)
			if q.Cap() != capacity {
				t.Fatalf("%v cap %d: Cap()=%d", kind, capacity, q.Cap())
			}
			for i := 0; i < capacity; i++ {
				if !q.TryProduce(int64(i)) {
					t.Fatalf("%v cap %d: TryProduce %d failed below capacity", kind, capacity, i)
				}
			}
			if q.TryProduce(99) {
				t.Fatalf("%v cap %d: TryProduce succeeded at capacity", kind, capacity)
			}
			q.Publish()
			if q.Len() != capacity {
				t.Fatalf("%v cap %d: Len()=%d at full", kind, capacity, q.Len())
			}
			for i := 0; i < capacity; i++ {
				v, ok := q.TryConsume()
				if !ok || v != int64(i) {
					t.Fatalf("%v cap %d: TryConsume got (%d,%v), want (%d,true)", kind, capacity, v, ok, i)
				}
			}
			if _, ok := q.TryConsume(); ok {
				t.Fatalf("%v cap %d: TryConsume succeeded on empty queue", kind, capacity)
			}
			q.Release()
			if q.Len() != 0 {
				t.Fatalf("%v cap %d: Len()=%d when empty", kind, capacity, q.Len())
			}
		}
	}
}

// TestFIFOConcurrent is the core SPSC property test: one producer, one
// consumer, every value arrives exactly once and in order (no loss, no
// duplication, no reordering). Run with -race. The total is a multiple of
// no batch size, so the stream ends with a partial batch only the
// producer's end-of-stream Publish can deliver.
func TestFIFOConcurrent(t *testing.T) {
	const total = 200003
	for _, kind := range kinds {
		for _, capacity := range []int{1, 3, 32, 256} {
			q := New(kind, capacity)
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < total; i++ {
					if !q.Produce(int64(i), done) {
						t.Errorf("%v cap %d: Produce canceled unexpectedly", kind, capacity)
						return
					}
				}
				q.Publish()
			}()
			for i := 0; i < total; i++ {
				v, ok := q.Consume(done)
				if !ok {
					t.Fatalf("%v cap %d: Consume canceled unexpectedly", kind, capacity)
				}
				if v != int64(i) {
					t.Fatalf("%v cap %d: value %d out of order (want %d)", kind, capacity, v, i)
				}
			}
			wg.Wait()
			q.Release()
			if q.Len() != 0 {
				t.Fatalf("%v cap %d: %d values left over", kind, capacity, q.Len())
			}
		}
	}
}

// TestBatchedConcurrent drives the queue with randomized runs of scalar
// TryProduce/TryConsume on both endpoints, falling back to the blocking
// op whenever a Try fails (as the runtime's stage loop does), and ending
// some runs with Publish/Release (as the stage loop's flush does). The
// consumed sequence must be exactly 0..total-1. As in TestFIFOConcurrent,
// the total ends the stream on a partial publication batch.
func TestBatchedConcurrent(t *testing.T) {
	const total = 100003
	for _, kind := range kinds {
		for _, capacity := range []int{1, 8, 32} {
			q := New(kind, capacity)
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(capacity) + 1))
				for next := int64(0); next < total; {
					for n := rng.Intn(64) + 1; n > 0 && next < total; n-- {
						if !q.TryProduce(next) && !q.Produce(next, done) {
							t.Errorf("Produce canceled")
							return
						}
						next++
					}
					if rng.Intn(4) == 0 {
						q.Publish()
					}
				}
				q.Publish()
			}()
			rng := rand.New(rand.NewSource(int64(capacity) + 2))
			for next := int64(0); next < total; {
				for n := rng.Intn(64) + 1; n > 0 && next < total; n-- {
					v, ok := q.TryConsume()
					if !ok {
						if v, ok = q.Consume(done); !ok {
							t.Fatalf("Consume canceled")
						}
					}
					if v != next {
						t.Fatalf("%v cap %d: got %d, want %d", kind, capacity, v, next)
					}
					next++
				}
				if rng.Intn(4) == 0 {
					q.Release()
				}
			}
			wg.Wait()
		}
	}
}

// TestLazyPublication pins the ring's batch rule and the contract it
// implies: values below a batch stay invisible to the consumer (and to
// Len) until the producer publishes, and slots consumed below a batch
// stay unavailable to the producer until the consumer releases.
func TestLazyPublication(t *testing.T) {
	for capacity, want := range map[int]uint64{1: 1, 2: 1, 3: 1, 4: 1, 7: 1, 8: 2, 13: 3, 16: 4, 32: 8,
		256: 64, 300: 64, 1024: 64} {
		if got := New(KindRing, capacity).(*ring).batch; got != want {
			t.Errorf("cap %d: batch %d, want %d", capacity, got, want)
		}
	}
	for _, capacity := range []int{8, 13, 32, 256, 1024} {
		q := New(KindRing, capacity)
		below := int(batchFor(capacity)) - 1
		for i := 0; i < below; i++ {
			if !q.TryProduce(int64(i)) {
				t.Fatalf("cap %d: TryProduce %d failed", capacity, i)
			}
		}
		if n := q.Len(); n != 0 {
			t.Fatalf("cap %d: Len()=%d before Publish, want 0", capacity, n)
		}
		if v, ok := q.TryConsume(); ok {
			t.Fatalf("cap %d: TryConsume got %d before Publish", capacity, v)
		}
		q.Publish()
		if n := q.Len(); n != below {
			t.Fatalf("cap %d: Len()=%d after Publish, want %d", capacity, n, below)
		}
		for i := 0; i < below; i++ {
			if v, ok := q.TryConsume(); !ok || v != int64(i) {
				t.Fatalf("cap %d: TryConsume got (%d,%v), want (%d,true)", capacity, v, ok, i)
			}
		}
		q.Release()

		// Fill to capacity, take one value back: the producer stays full
		// until the consumer releases the slot.
		for i := 0; i < capacity; i++ {
			if !q.TryProduce(int64(i)) {
				t.Fatalf("cap %d: fill %d failed", capacity, i)
			}
		}
		q.Publish()
		if _, ok := q.TryConsume(); !ok {
			t.Fatalf("cap %d: TryConsume failed on a full queue", capacity)
		}
		if q.TryProduce(-1) {
			t.Fatalf("cap %d: TryProduce reused a slot before Release", capacity)
		}
		if n := q.Len(); n != capacity {
			t.Fatalf("cap %d: Len()=%d before Release, want %d", capacity, n, capacity)
		}
		q.Release()
		if n := q.Len(); n != capacity-1 {
			t.Fatalf("cap %d: Len()=%d after Release, want %d", capacity, n, capacity-1)
		}
		if !q.TryProduce(-1) {
			t.Fatalf("cap %d: TryProduce failed after Release", capacity)
		}
	}
	// Capacities below 8 publish every value at once.
	q := New(KindRing, 3)
	q.TryProduce(1)
	if n := q.Len(); n != 1 {
		t.Fatalf("cap 3: Len()=%d after one TryProduce, want 1", n)
	}
}

// TestBlockingCancel checks both blocking ops honor the done channel: a
// producer stuck on a full queue and a consumer stuck on an empty one must
// return promptly once done fires, past the spin budget and into the park.
func TestBlockingCancel(t *testing.T) {
	for _, kind := range kinds {
		q := New(kind, 1)
		if !q.TryProduce(7) {
			t.Fatal("seed produce failed")
		}
		done := make(chan struct{})
		res := make(chan bool, 2)
		go func() { res <- q.Produce(8, done) }()

		empty := New(kind, 1)
		go func() { _, ok := empty.Consume(done); res <- ok }()

		time.Sleep(20 * time.Millisecond) // let both pass the spin phase and park
		close(done)
		for i := 0; i < 2; i++ {
			select {
			case ok := <-res:
				if ok {
					t.Fatalf("%v: blocking op succeeded after cancel", kind)
				}
			case <-time.After(2 * time.Second):
				t.Fatalf("%v: blocking op did not observe cancellation", kind)
			}
		}
	}
}

// TestParkWake forces the park path on both endpoints with a slow peer: the
// waiter must be woken by the opposite endpoint's publish, not by polling.
func TestParkWake(t *testing.T) {
	for _, kind := range kinds {
		q := New(kind, 1)
		done := make(chan struct{})
		defer close(done)

		// Consumer parks on empty queue; producer publishes after a delay.
		got := make(chan int64, 1)
		go func() {
			v, ok := q.Consume(done)
			if ok {
				got <- v
			}
		}()
		time.Sleep(10 * time.Millisecond)
		if !q.Produce(42, done) {
			t.Fatalf("%v: produce failed", kind)
		}
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("%v: woke with %d, want 42", kind, v)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%v: parked consumer never woke", kind)
		}

		// Producer parks on full queue; consumer drains after a delay.
		if !q.TryProduce(1) {
			t.Fatalf("%v: fill failed", kind)
		}
		sent := make(chan struct{})
		go func() {
			if q.Produce(2, done) {
				close(sent)
			}
		}()
		time.Sleep(10 * time.Millisecond)
		if v, ok := q.Consume(done); !ok || v != 1 {
			t.Fatalf("%v: drain got (%d,%v)", kind, v, ok)
		}
		select {
		case <-sent:
		case <-time.After(2 * time.Second):
			t.Fatalf("%v: parked producer never woke", kind)
		}
		if v, ok := q.Consume(done); !ok || v != 2 {
			t.Fatalf("%v: got (%d,%v), want (2,true)", kind, v, ok)
		}
	}
}

// TestLenBounded samples Len from a third goroutine while the endpoints run
// flat out: every snapshot must stay within [0, Cap].
func TestLenBounded(t *testing.T) {
	const total = 50000
	for _, kind := range kinds {
		q := New(kind, 5)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < total; i++ {
				q.Produce(int64(i), done)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < total; i++ {
				q.Consume(done)
			}
		}()
		for i := 0; i < 10000; i++ {
			if n := q.Len(); n < 0 || n > q.Cap() {
				t.Fatalf("%v: Len()=%d outside [0,%d]", kind, n, q.Cap())
			}
		}
		wg.Wait()
	}
}

// TestNewPanicsOnBadCap pins the capacity precondition.
func TestNewPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(KindRing, 0) did not panic")
		}
	}()
	New(KindRing, 0)
}
