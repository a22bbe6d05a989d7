package queue

import (
	"runtime"
	"sync/atomic"

	"dswp/internal/failpoint"
)

// queue/ring/park perturbs timing on the park slow path — arm it with a
// sleep action to stretch the sleep/wake handshake window a chaos soak
// wants to stress. It sits past the spin budget, never on the fast path,
// and any error action is discarded: a queue cannot "fail", only dally.
var fpPark = failpoint.New("queue/ring/park")

// ring is a lock-free single-producer/single-consumer bounded FIFO, the
// software analogue of one synchronization-array cell. Indices are
// monotonically increasing uint64s over a power-of-two buffer; the logical
// capacity is the exact value requested (which may be smaller than the
// buffer), so watchdog full/empty occupancy checks and fault-plan capacity
// overrides see the same bound as the channel implementation.
//
// Publication is lazy at both ends (FastForward / MCRingBuffer style).
// Each endpoint advances a private index (ptail, chead) and stores it to
// the shared atomic (tail, head) only once per batch of values, or when
// its owner calls Publish/Release. So a pipelined loop pays one atomic
// hand-off, and one cache-line transfer to the peer, per batch instead of
// per value. The batch is min(64, cap/4) with a floor of 1, so capacities
// below 8 keep per-value publication. Values an endpoint has not yet
// published are invisible to its peer and to Len: the producer must
// Publish at the end of a stream and the consumer must Release before it
// waits on anything else, or the peer can wait forever on values or
// slots that exist only in the private index.
//
// Memory layout groups fields by writer so the producer's private fields
// (ptail + its cached head snapshot), the consumer's private fields (chead
// + cached tail) and the two published indices never false-share: a full
// 64-byte pad follows each group, so no two groups meet on one cache line
// whatever the alignment of the allocation. All
// cross-thread accesses to head/tail go through sync/atomic, which both
// the memory model and the race detector treat as synchronization; slot
// reads/writes are plain, ordered by the index publish.
//
// Blocking ops publish their own end first and then use a bounded spin →
// runtime.Gosched → park ladder. Parking is a Dekker-style handshake: the
// waiter drains any stale wake token, arms its waiting flag, re-checks the
// queue, and only then blocks on a cap-1 token channel; the opposite
// endpoint's Publish/Release stores its index first and then checks the
// flag. Go atomics are sequentially consistent, so one side always
// observes the other and wakeups cannot be lost. Spurious tokens merely
// cause one extra loop iteration.
type ring struct {
	buf      []int64
	mask     uint64
	capacity uint64
	batch    uint64 // values per publication at each end
	_        [64]byte

	// Producer-owned.
	ptail      uint64 // next slot to write; private until published
	pubTail    uint64 // the producer's last store to tail
	cachedHead uint64 // producer's last-seen head, refreshed only when apparently full
	_          [64]byte

	// Consumer-owned.
	chead      uint64 // next slot to read; private until released
	pubHead    uint64 // the consumer's last store to head
	cachedTail uint64 // consumer's last-seen tail, refreshed only when apparently empty
	_          [64]byte

	// Published indices, each written by one end and read by the other.
	tail atomic.Uint64 // every slot below it holds a value the consumer may read
	_    [64]byte
	head atomic.Uint64 // every slot below it is free for the producer to reuse
	_    [64]byte

	// Park/wake state; written only on the slow path, read-mostly otherwise.
	prodWait atomic.Uint32 // producer is parked (or about to park) waiting for space
	consWait atomic.Uint32 // consumer is parked (or about to park) waiting for data
	prodWake chan struct{}
	consWake chan struct{}
}

// maxBatch caps lazy publication. At 64 values per index store one atomic
// store and one cache-line transfer of the index serve 64 values, so the
// hand-off is a small share of a value's cost next to the slot itself; a
// larger batch would only delay visibility on deep queues. Reaching it
// takes a capacity of at least 256 (the batch is at most a quarter of it),
// which is why runtime.DefaultQueueCap is deep.
const maxBatch = 64

// batchFor is the publication batch of a ring of the given capacity:
// min(maxBatch, capacity/4), at least 1. An end holds fewer than a batch
// unpublished, so the quarter-capacity cap keeps lazy publication from
// eating more than a quarter of the queue's decoupling slack.
func batchFor(capacity int) uint64 {
	return uint64(max(1, min(maxBatch, capacity/4)))
}

// spinBudget bounds the busy-wait phase of a blocking op before parking.
// Gosched is interleaved so a same-P peer can run; past the budget the
// goroutine parks on the wake channel and costs nothing until notified.
// With one P spinning is pure waste — the opposite endpoint cannot make
// progress while we burn the CPU — so the spin phase collapses to a
// single yielding try, same as the Go runtime's own uniprocessor mutexes.
//
// The budget is re-sampled per blocking op (not frozen at package or ring
// construction) so rings built before a runtime.GOMAXPROCS change neither
// spin pointlessly when the process is later confined to one P nor
// park-early after it is widened — the exact staleness bug a
// GOMAXPROCS-sweeping benchmark would otherwise inherit from its first
// sweep point. GOMAXPROCS(0) takes the scheduler lock, so callers only
// consult this after a first failed try, off the uncontended fast path.
func spinBudget() int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 8
	}
	return 64
}

func newRing(capacity int) *ring {
	n := Slots(KindRing, capacity)
	return &ring{
		buf:      make([]int64, n),
		mask:     uint64(n - 1),
		capacity: uint64(capacity),
		batch:    batchFor(capacity),
		prodWake: make(chan struct{}, 1),
		consWake: make(chan struct{}, 1),
	}
}

func (q *ring) TryProduce(v int64) bool {
	t := q.ptail
	if t-q.cachedHead >= q.capacity {
		q.cachedHead = q.head.Load()
		if t-q.cachedHead >= q.capacity {
			return false
		}
	}
	q.buf[t&q.mask] = v
	q.ptail = t + 1
	if t+1-q.pubTail >= q.batch {
		q.Publish()
	}
	return true
}

func (q *ring) TryConsume() (int64, bool) {
	h := q.chead
	if h == q.cachedTail {
		q.cachedTail = q.tail.Load()
		if h == q.cachedTail {
			return 0, false
		}
	}
	v := q.buf[h&q.mask]
	q.chead = h + 1
	if h+1-q.pubHead >= q.batch {
		q.Release()
	}
	return v, true
}

// Publish stores the producer's private tail and wakes a parked consumer.
// With nothing unpublished it is one comparison.
func (q *ring) Publish() {
	if q.ptail == q.pubTail {
		return
	}
	q.pubTail = q.ptail
	q.tail.Store(q.pubTail)
	if q.consWait.Load() != 0 {
		q.consWait.Store(0)
		select {
		case q.consWake <- struct{}{}:
		default:
		}
	}
}

// Release stores the consumer's private head and wakes a parked producer.
func (q *ring) Release() {
	if q.chead == q.pubHead {
		return
	}
	q.pubHead = q.chead
	q.head.Store(q.pubHead)
	if q.prodWait.Load() != 0 {
		q.prodWait.Store(0)
		select {
		case q.prodWake <- struct{}{}:
		default:
		}
	}
}

func (q *ring) Produce(v int64, done <-chan struct{}) bool {
	if q.TryProduce(v) { // uncontended fast path: no budget lookup
		return true
	}
	q.Publish() // the consumer may be waiting on values we hold
	for i, budget := 0, spinBudget(); i < budget; i++ {
		if q.TryProduce(v) {
			return true
		}
		if i&7 == 7 {
			runtime.Gosched()
		}
	}
	_ = fpPark.Fail() // sleep-only timing perturbation
	for {
		select { // drain a stale token so the park below cannot fire early
		case <-q.prodWake:
		default:
		}
		q.prodWait.Store(1)
		if q.TryProduce(v) { // re-check after arming: closes the sleep/wake race
			q.prodWait.Store(0)
			return true
		}
		select {
		case <-q.prodWake:
		case <-done:
			q.prodWait.Store(0)
			return false
		}
	}
}

func (q *ring) Consume(done <-chan struct{}) (int64, bool) {
	if v, ok := q.TryConsume(); ok { // uncontended fast path: no budget lookup
		return v, true
	}
	q.Release() // the producer may be waiting on slots we hold
	for i, budget := 0, spinBudget(); i < budget; i++ {
		if v, ok := q.TryConsume(); ok {
			return v, true
		}
		if i&7 == 7 {
			runtime.Gosched()
		}
	}
	_ = fpPark.Fail() // sleep-only timing perturbation
	for {
		select {
		case <-q.consWake:
		default:
		}
		q.consWait.Store(1)
		if v, ok := q.TryConsume(); ok {
			q.consWait.Store(0)
			return v, true
		}
		select {
		case <-q.consWake:
		case <-done:
			q.consWait.Store(0)
			return 0, false
		}
	}
}

// Len is a racy but bounded snapshot of the published indices: head is
// loaded before tail, so the difference can only overshoot (never go
// negative), and it is clamped to the logical capacity so watchdog
// occupancy-consistency checks stay sound. Values or slots an end holds
// unpublished do not count until that end publishes them.
func (q *ring) Len() int {
	h := q.head.Load()
	t := q.tail.Load()
	n := t - h
	if n > q.capacity {
		n = q.capacity
	}
	return int(n)
}

func (q *ring) Cap() int { return int(q.capacity) }

// Reset empties the ring and clears park/wake state. Indices stay
// monotonic (everything jumps to the producer's private tail, which
// counts unpublished values too) so a reused ring is indistinguishable
// from a fresh one to both endpoints. Quiescent callers only (see
// Queue.Reset): the private index fields are endpoint-owned and may only
// be touched when no endpoint is live.
func (q *ring) Reset() {
	t := q.ptail
	q.pubTail, q.cachedHead = t, t
	q.chead, q.pubHead, q.cachedTail = t, t, t
	q.tail.Store(t)
	q.head.Store(t)
	q.prodWait.Store(0)
	q.consWait.Store(0)
	select {
	case <-q.prodWake:
	default:
	}
	select {
	case <-q.consWake:
	default:
	}
}
