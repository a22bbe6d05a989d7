package queue

// chanQueue is the reference implementation: a buffered Go channel. It is
// MPMC-safe, so the runtime uses it both as the default substrate and as the
// fallback for any queue whose static produce/consume sites span more than
// one thread on either side (where the SPSC ring would be unsound).
type chanQueue struct {
	ch chan int64
}

func newChan(capacity int) *chanQueue {
	return &chanQueue{ch: make(chan int64, capacity)}
}

func (q *chanQueue) TryProduce(v int64) bool {
	select {
	case q.ch <- v:
		return true
	default:
		return false
	}
}

func (q *chanQueue) TryConsume() (int64, bool) {
	select {
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

func (q *chanQueue) Produce(v int64, done <-chan struct{}) bool {
	select {
	case q.ch <- v:
		return true
	case <-done:
		return false
	}
}

func (q *chanQueue) Consume(done <-chan struct{}) (int64, bool) {
	select {
	case v := <-q.ch:
		return v, true
	case <-done:
		return 0, false
	}
}

// Publish and Release are no-ops: a channel send or receive is visible
// to the other end at once.
func (q *chanQueue) Publish() {}
func (q *chanQueue) Release() {}

func (q *chanQueue) Len() int { return len(q.ch) }
func (q *chanQueue) Cap() int { return cap(q.ch) }

// Reset drains any values a failed or canceled run left behind. Quiescent
// callers only (see Queue.Reset).
func (q *chanQueue) Reset() {
	for {
		select {
		case <-q.ch:
		default:
			return
		}
	}
}
