// Package queue provides the inter-thread communication substrate for the
// pipeline runtime: the software stand-in for the paper's synchronization
// array. Two interchangeable implementations exist behind the Queue
// interface — a Go-channel reference implementation (KindChannel) and a
// cache-line-padded lock-free single-producer/single-consumer ring buffer
// (KindRing) whose ends publish their indices lazily, once per batch of
// values, so one atomic hand-off is amortized over many values.
//
// The contract mirrors what the runtime's hot loop needs:
//
//   - Try* operations never block; they are the fast path and report
//     full/empty so the caller can publish a blocked state to the watchdog
//     before committing to a blocking wait.
//   - A value the producer has offered may stay invisible to the consumer
//     until the producer calls Publish, and a consumed slot may stay
//     unavailable to the producer until the consumer calls Release. Each
//     end must publish before it waits on anything (this queue or any
//     other) and at the end of its stream; Publish and Release never
//     block. The ring publishes by itself once per batch, so the calls
//     bound latency rather than carry every value.
//   - Produce/Consume block until space/data is available or the done
//     channel fires (cancellation), parking the goroutine so a stalled
//     pipeline costs no CPU and the scheduler sees the thread as blocked.
//     They publish their own end before they wait.
//   - Len/Cap are safe to call from any goroutine (the watchdog reads
//     occupancy concurrently with both endpoints); Len is a racy snapshot
//     of published occupancy, always within [0, Cap].
//
// Ring queues are strictly SPSC: exactly one goroutine may produce and one
// may consume. The runtime enforces this statically (DSWP queues have one
// producer and one consumer thread by construction) and falls back to the
// channel implementation for any queue that violates it.
package queue

import "fmt"

// Kind selects the queue implementation backing a pipeline.
type Kind int

const (
	// KindChannel backs each queue with a buffered Go channel. It is the
	// zero value so existing callers keep the original behavior.
	KindChannel Kind = iota
	// KindRing backs each SPSC queue with the lock-free ring buffer.
	KindRing
)

func (k Kind) String() string {
	switch k {
	case KindChannel:
		return "channel"
	case KindRing:
		return "ring"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a -queue flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "channel", "chan", "":
		return KindChannel, nil
	case "ring":
		return KindRing, nil
	default:
		return 0, fmt.Errorf("unknown queue kind %q (want channel or ring)", s)
	}
}

// Queue is the synchronization-array cell abstraction: a bounded FIFO of
// int64 flow values between one producer thread and one consumer thread.
type Queue interface {
	// TryProduce appends v without blocking; false means the queue is
	// full. The consumer may not see v until the next Publish.
	TryProduce(v int64) bool
	// TryConsume removes the oldest published value without blocking;
	// false means empty. The producer may not get the slot back until the
	// next Release.
	TryConsume() (int64, bool)

	// Produce blocks until v is enqueued or done fires; false means
	// canceled. It publishes the producer's end before it waits.
	Produce(v int64, done <-chan struct{}) bool
	// Consume blocks until a value is dequeued or done fires; ok=false means
	// canceled. It releases the consumer's end before it waits.
	Consume(done <-chan struct{}) (v int64, ok bool)

	// Publish makes every value offered so far visible to the consumer
	// and wakes it if parked. Producer end only; never blocks.
	Publish()
	// Release returns every consumed slot to the producer and wakes it if
	// parked. Consumer end only; never blocks.
	Release()

	// Len is a concurrent-safe snapshot of published occupancy, always in
	// [0, Cap].
	Len() int
	// Cap is the bounded logical capacity the queue was created with.
	Cap() int

	// Reset restores the queue to its freshly-constructed state: empty,
	// with no parked endpoints and no pending wake tokens. It is NOT
	// concurrent-safe — the caller must guarantee the queue is quiescent
	// (no goroutine is inside any other method), which holds whenever the
	// pipeline run that used the queue has fully returned. Warm instance
	// pools call it between runs instead of reallocating.
	Reset()
}

// Slots is the number of int64 slots a queue of the given kind and
// capacity allocates: the ring rounds its buffer up to a power of two, a
// channel buffers exactly its capacity.
func Slots(kind Kind, capacity int) int {
	if kind != KindRing {
		return capacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return n
}

// New builds a queue of the given kind. Capacity must be >= 1.
func New(kind Kind, capacity int) Queue {
	if capacity < 1 {
		panic(fmt.Sprintf("queue: capacity %d < 1", capacity))
	}
	switch kind {
	case KindRing:
		return newRing(capacity)
	default:
		return newChan(capacity)
	}
}
