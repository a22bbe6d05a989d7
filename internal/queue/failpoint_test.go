package queue

import (
	"runtime"
	"testing"

	"dswp/internal/failpoint"
)

// TestFailpointParkDelay arms queue/ring/park with a sleep action and
// drives the consumer through the park slow path: the injected delay
// stretches the sleep/wake handshake window but must never lose or
// reorder a value. The producer waits for the consumer to arm its
// waiting flag before every produce, so each consume spins out its
// budget and reaches the park path at any GOMAXPROCS.
func TestFailpointParkDelay(t *testing.T) {
	failpoint.Reset()
	defer failpoint.Reset()
	if err := failpoint.Enable("queue/ring/park", "sleep(2ms):every(1)"); err != nil {
		t.Fatal(err)
	}
	q := New(KindRing, 1).(*ring)
	done := make(chan struct{})
	defer close(done)

	const n = 64
	errs := make(chan error, 1)
	go func() {
		for i := int64(0); i < n; i++ {
			for q.consWait.Load() == 0 {
				select {
				case <-done:
					errs <- errDone("consumer stopped early")
					return
				default:
					runtime.Gosched()
				}
			}
			if !q.Produce(i, done) {
				errs <- errDone("producer stopped early")
				return
			}
		}
		errs <- nil
	}()
	for i := int64(0); i < n; i++ {
		v, ok := q.Consume(done)
		if !ok {
			t.Fatal("consumer stopped early")
		}
		if v != i {
			t.Fatalf("value %d out of order (want %d)", v, i)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if failpoint.Triggers()["queue/ring/park"] == 0 {
		t.Fatal("the park path never triggered — the consumer parked before every produce")
	}
}

type errDone string

func (e errDone) Error() string { return string(e) }
