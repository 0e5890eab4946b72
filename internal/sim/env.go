// Package sim provides the execution environment abstraction that lets every
// ArkFS component run unchanged in two modes:
//
//   - RealEnv: wall-clock time, ordinary goroutines — used by unit and
//     integration tests and by the live cmd/ tools.
//   - VirtEnv: a discrete-event virtual clock — used by the benchmark harness
//     to reproduce the paper's 512-client experiments deterministically on a
//     single machine.
//
// Components must follow one rule: any operation that can block across
// simulated time goes through the Env (Sleep, Chan send/recv, Group.Wait).
// Plain sync.Mutex use is fine as long as a lock is never held across an Env
// blocking call.
package sim

import "time"

// Env is the execution environment: a clock plus tracked goroutines and
// blocking primitives. All times are durations since the environment's epoch.
type Env interface {
	// Now returns the current (virtual or wall) time since the epoch.
	Now() time.Duration
	// Sleep pauses the calling goroutine for d. In a VirtEnv that has been
	// shut down, Sleep returns immediately.
	Sleep(d time.Duration)
	// Yield lets every goroutine that is already runnable run first, then
	// returns. A RealEnv returns at once, and so does a VirtEnv in which
	// nothing else is runnable.
	Yield()
	// Go runs fn on a tracked goroutine. Every goroutine that uses Env
	// blocking calls must be started via Go (or be the one inside Run).
	Go(fn func())
	// After schedules fn to run on a tracked goroutine at Now()+d.
	// It returns a cancel function; cancel reports whether it prevented fn.
	After(d time.Duration, fn func()) (cancel func() bool)
	// Shutdown wakes all sleepers immediately and makes subsequent Sleeps
	// no-ops, so background loops can observe their stop flags and exit.
	Shutdown()
	// Stopped reports whether Shutdown has been called.
	Stopped() bool

	// newChanCore returns the untyped blocking-queue implementation backing
	// Chan[T]. Internal: use NewChan.
	newChanCore() chanCore
}

// chanCore is an unbounded FIFO queue with env-aware blocking receive.
// Sends never block (the queue is unbounded), which keeps the virtual-clock
// scheduler simple; bounded behavior, where needed, is built above this.
type chanCore interface {
	send(v any) bool     // false if the channel is closed
	sendNext(v any) bool // send, the woken receiver running next
	recv() (v any, ok bool)
	recvTimeout(d time.Duration) (v any, ok bool, timedOut bool)
	close()
	len() int
}

// Chan is a typed, unbounded, env-aware channel. The zero value is not
// usable; create one with NewChan.
type Chan[T any] struct {
	core chanCore
}

// NewChan creates a channel bound to env.
func NewChan[T any](env Env) *Chan[T] {
	return &Chan[T]{core: env.newChanCore()}
}

// Send enqueues v. It never blocks. It reports false if the channel is
// closed (the value is dropped).
func (c *Chan[T]) Send(v T) bool { return c.core.send(v) }

// SendNext is Send, except that in a VirtEnv the receiver it wakes runs
// before every goroutine that is already runnable, as if the sender had gone
// on to do the receiver's work itself. In a RealEnv it is Send.
func (c *Chan[T]) SendNext(v T) bool { return c.core.sendNext(v) }

// Recv blocks until a value is available or the channel is closed and
// drained; ok is false in the latter case.
func (c *Chan[T]) Recv() (T, bool) {
	v, ok := c.core.recv()
	if !ok {
		var zero T
		return zero, false
	}
	return cast[T](v), true
}

// RecvTimeout is Recv with a deadline d from now.
func (c *Chan[T]) RecvTimeout(d time.Duration) (v T, ok bool, timedOut bool) {
	raw, ok, timedOut := c.core.recvTimeout(d)
	if !ok {
		var zero T
		return zero, false, timedOut
	}
	return cast[T](raw), true, false
}

// cast converts a queued any back to T, mapping a nil interface (e.g. a nil
// error sent through Chan[error]) to T's zero value.
func cast[T any](v any) T {
	if v == nil {
		var zero T
		return zero
	}
	return v.(T)
}

// fifo is a queue that keeps its array: a pop advances the head, and a push
// that finds the array full moves the values left to its front once the
// popped ones fill at least half of it. A channel whose length holds steady
// (an rpc server's slots, a reply used for one exchange after another) stops
// allocating.
type fifo[T any] struct {
	buf  []T
	head int
}

func (q *fifo[T]) len() int { return len(q.buf) - q.head }

func (q *fifo[T]) push(v T) {
	if len(q.buf) == cap(q.buf) && q.head > 0 && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// pushFront puts v before the head.
func (q *fifo[T]) pushFront(v T) {
	if q.head == 0 {
		q.buf = append(q.buf, v) // room for one more; everything shifts up
		copy(q.buf[1:], q.buf)
		q.head = 1
	}
	q.head--
	q.buf[q.head] = v
}

// pop removes and returns the head; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	if q.head++; q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}

// Close closes the channel. Pending values can still be received.
func (c *Chan[T]) Close() { c.core.close() }

// Len returns the number of queued values.
func (c *Chan[T]) Len() int { return c.core.len() }

// Mutex is an env-aware mutual-exclusion lock that is safe to hold across
// Env blocking calls (Sleep, Chan operations): waiting lockers park through
// the environment, so a VirtEnv can keep advancing its clock. A plain
// sync.Mutex must never be held across such calls.
type Mutex struct {
	tok *Chan[struct{}]
}

// NewMutex creates an unlocked mutex bound to env.
func NewMutex(env Env) *Mutex {
	m := &Mutex{tok: NewChan[struct{}](env)}
	m.tok.Send(struct{}{})
	return m
}

// Lock acquires the mutex. After environment shutdown it degrades to a
// no-op so teardown paths cannot wedge.
func (m *Mutex) Lock() { m.tok.Recv() }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.tok.Send(struct{}{}) }

// Group is an env-aware WaitGroup built on Chan: each task sends one token
// on completion and Wait receives one per task.
type Group struct {
	env   Env
	done  *Chan[struct{}]
	count int
}

// NewGroup creates an empty group.
func NewGroup(env Env) *Group {
	return &Group{env: env, done: NewChan[struct{}](env)}
}

// Go runs fn on a tracked goroutine and registers it with the group.
// It must not race with Wait.
func (g *Group) Go(fn func()) {
	g.count++
	g.env.Go(func() {
		defer g.done.Send(struct{}{})
		fn()
	})
}

// Wait blocks until every registered task has finished.
func (g *Group) Wait() {
	for ; g.count > 0; g.count-- {
		g.done.Recv()
	}
}
