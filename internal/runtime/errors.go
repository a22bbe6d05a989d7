package runtime

import (
	"fmt"
	"strings"
	"time"

	"dswp/internal/obs"
)

// BlockInfo is one thread's state at the moment a failure was detected:
// where the thread is parked and on which queue, mirroring the
// interpreter's deadlock diagnostics but captured from live goroutines.
type BlockInfo struct {
	Thread int
	Fn     string
	Block  string
	PC     int
	Instr  string
	// State is "running", "done", "blocked-empty" (consume on an empty
	// queue), "blocked-full" (produce on a full queue), or
	// "checkpoint-barrier" (parked at an iteration-boundary barrier).
	State string
	// Queue is the queue the thread is blocked on, or -1.
	Queue int
	// Iter is the thread's completed outer-loop iteration count at the
	// moment of the snapshot (-1 when the thread has no loop).
	Iter int64
}

func (b BlockInfo) String() string {
	switch b.State {
	case "done":
		return fmt.Sprintf("thread%d=done", b.Thread)
	case "running":
		return fmt.Sprintf("thread%d=running (%s) iter=%d", b.Thread, b.Fn, b.Iter)
	case "checkpoint-barrier":
		return fmt.Sprintf("thread%d=checkpoint-barrier (%s) iter=%d", b.Thread, b.Fn, b.Iter)
	}
	return fmt.Sprintf("thread%d=%s q%d at %s/%s[%d] %q iter=%d",
		b.Thread, b.State, b.Queue, b.Fn, b.Block, b.PC, b.Instr, b.Iter)
}

// QueueInfo is one synchronization-array queue's occupancy at failure time,
// with its static producer/consumer threads so wait-for cycles are readable
// directly from the error.
type QueueInfo struct {
	Queue     int
	Len, Cap  int
	Producers []int
	Consumers []int
}

// String delegates to the shared internal/obs formatter so the runtime's
// deadlock reports and the interpreter's print identical queue tables.
func (q QueueInfo) String() string {
	return obs.QueueState{
		Queue: q.Queue, Len: q.Len, Cap: q.Cap,
		Producers: q.Producers, Consumers: q.Consumers,
	}.String()
}

// DeadlockError reports an all-blocked state: every live thread is parked
// on a queue operation that can never complete. For DSWP output this means
// the partition was not acyclic (or flows were mis-inserted) — exactly the
// transformation bug class the synchronization array's blocking semantics
// are supposed to surface.
type DeadlockError struct {
	Threads []BlockInfo
	Queues  []QueueInfo
}

func (e *DeadlockError) Error() string {
	var sb strings.Builder
	sb.WriteString("runtime: deadlock:")
	for _, th := range e.Threads {
		sb.WriteString(" " + th.String() + ";")
	}
	sb.WriteString(" queues:")
	for _, q := range e.Queues {
		sb.WriteString(" " + q.String() + ";")
	}
	return sb.String()
}

// TimeoutError reports a wall-clock stall that never became a provable
// all-blocked state (e.g. livelock, or a fault-injected stall that exceeded
// the budget).
type TimeoutError struct {
	Elapsed time.Duration
	Steps   int64
	Threads []BlockInfo
}

func (e *TimeoutError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "runtime: timeout after %v (%d instructions retired):", e.Elapsed, e.Steps)
	for _, th := range e.Threads {
		sb.WriteString(" " + th.String() + ";")
	}
	return sb.String()
}

// StepLimitError reports that the run exceeded Options.MaxSteps.
type StepLimitError struct {
	Limit int64
}

func (e *StepLimitError) Error() string {
	return fmt.Sprintf("runtime: step limit %d exceeded", e.Limit)
}

// CanceledError reports that the run was stopped by the caller's context
// (explicit cancellation or deadline expiry) before completing. It wraps
// the context error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work through it.
type CanceledError struct {
	// Err is the context's error: context.Canceled or
	// context.DeadlineExceeded.
	Err error
	// Steps is the total retired instruction count at cancellation.
	Steps int64
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("runtime: run canceled after %d instructions: %v", e.Steps, e.Err)
}

func (e *CanceledError) Unwrap() error { return e.Err }

// StageFailure reports a panic inside one pipeline stage, converted into a
// structured error instead of crashing the process: the panic value, the
// failing goroutine's stack, and a full pipeline snapshot (every thread's
// block site plus queue occupancy, formatted with the same obs queue table
// the deadlock report uses).
type StageFailure struct {
	// Thread and Fn identify the panicking stage.
	Thread int
	Fn     string
	// Value is the recovered panic value, stringified.
	Value string
	// Stack is the panicking goroutine's stack trace.
	Stack string
	// Threads and Queues snapshot the whole pipeline at capture time.
	Threads []BlockInfo
	Queues  []QueueInfo
}

func (e *StageFailure) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "runtime: stage panic: thread %d (%s): %s;", e.Thread, e.Fn, e.Value)
	for _, th := range e.Threads {
		sb.WriteString(" " + th.String() + ";")
	}
	sb.WriteString(" queues:")
	for _, q := range e.Queues {
		sb.WriteString(" " + q.String() + ";")
	}
	return sb.String()
}

// QueueFaultError reports an injected queue fault: an error action fired
// on a queue's run-scoped policy (FaultPlan.Queue) before the value it
// caught moved. Nothing retries it in place; it is the permanent-fault
// signal the supervisor turns into a checkpoint resume.
type QueueFaultError struct {
	Thread int
	Queue  int
}

func (e *QueueFaultError) Error() string {
	return fmt.Sprintf("runtime: thread %d: permanent fault on queue %d", e.Thread, e.Queue)
}
