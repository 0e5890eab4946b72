package sim

import (
	"container/heap"
	"fmt"
	"sync"
	"time"
)

// VirtEnv is a discrete-event virtual-clock environment. Tracked goroutines
// run real Go code, one at a time: exactly one of them holds the baton, and
// it runs until it parks in an Env blocking call or exits. It then hands the
// baton to the head of the run queue; when the queue is empty, the clock
// advances to the earliest pending event and the goroutines that event wakes
// join the queue. Wake-ups enter the queue in the order the one running
// goroutine (or the clock) made them, so a simulation's interleaving depends
// on nothing but its own program: the same inputs replay the same run.
//
// This reproduces queueing behavior — server serialization, RTT stacking,
// bandwidth sharing — for hundreds of simulated clients in milliseconds of
// wall time, which is how the paper's 512-client figures are regenerated.
type VirtEnv struct {
	mu      sync.Mutex // guards every field below and all virtChan state
	now     time.Duration
	cur     *vGoroutine   // holds the baton; nil when nothing runs
	runq    []*vGoroutine // runnable, waiting for the baton, in wake order
	parked  int           // goroutines blocked in chan recv (not represented by events)
	events  eventHeap
	seq     int64
	stopped bool
	chans   []*virtChan // registry so Shutdown can wake every parked receiver
}

// vGoroutine is one tracked goroutine. It blocks on wake whenever it does not
// hold the baton; whoever hands it the baton sends one token.
type vGoroutine struct{ wake chan struct{} }

func newVGoroutine() *vGoroutine { return &vGoroutine{wake: make(chan struct{}, 1)} }

// NewVirtEnv returns a virtual environment at time zero with no tracked
// goroutines. Call Run to execute a simulation.
func NewVirtEnv() *VirtEnv { return &VirtEnv{} }

// An event is due at a virtual instant and does exactly one of: make g
// runnable (a sleep ends), time out w (a receive deadline), or start fn on a
// new goroutine (After).
type event struct {
	at  time.Duration
	seq int64
	g   *vGoroutine
	w   *vWaiter
	fn  func()
	// onShutdown: fire this event during Shutdown (sleep and timeout wakes);
	// plain After callbacks are dropped instead.
	onShutdown bool
	cancelled  bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Run registers the calling goroutine as tracked, executes fn, and then
// shuts the environment down (waking any still-parked background loops so
// they can exit). fn must wait for all work it cares about, e.g. via Group.
func (e *VirtEnv) Run(fn func()) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		panic("sim: Run on a shut-down VirtEnv")
	}
	g := newVGoroutine()
	e.readyLocked(g)
	e.mu.Unlock()
	<-g.wake
	defer func() {
		e.Shutdown()
		e.mu.Lock()
		e.passLocked()
		e.mu.Unlock()
	}()
	fn()
}

// Now implements Env.
func (e *VirtEnv) Now() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Sleep implements Env. The caller must be a tracked goroutine.
func (e *VirtEnv) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	g := e.cur
	e.pushLocked(&event{at: e.now + d, g: g, onShutdown: true})
	e.passLocked()
	e.mu.Unlock()
	<-g.wake
}

// Go implements Env. fn starts once the baton reaches it, after every
// goroutine that was already runnable.
func (e *VirtEnv) Go(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.startLocked(fn)
}

// After implements Env.
func (e *VirtEnv) After(d time.Duration, fn func()) func() bool {
	if d < 0 {
		d = 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	ev := &event{at: e.now + d, fn: fn}
	e.pushLocked(ev)
	return func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		was := ev.cancelled
		ev.cancelled = true
		return !was
	}
}

// Shutdown implements Env: wakes every sleeper and parked receiver, drops
// pending After callbacks, and makes future Sleeps no-ops.
func (e *VirtEnv) Shutdown() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.stopped = true
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		if !ev.cancelled && ev.onShutdown {
			e.fireLocked(ev)
		}
	}
	for _, c := range e.chans {
		c.wakeAllLocked(false)
	}
}

// Stopped implements Env.
func (e *VirtEnv) Stopped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stopped
}

// startLocked runs fn on a new tracked goroutine that waits for the baton.
func (e *VirtEnv) startLocked(fn func()) {
	g := newVGoroutine()
	e.readyLocked(g)
	go func() {
		<-g.wake
		defer func() {
			e.mu.Lock()
			e.passLocked()
			e.mu.Unlock()
		}()
		fn()
	}()
}

// readyLocked makes g runnable: it takes the baton at once if nothing holds
// it, and otherwise joins the run queue.
func (e *VirtEnv) readyLocked(g *vGoroutine) {
	if e.cur == nil {
		e.cur = g
		g.wake <- struct{}{}
		return
	}
	e.runq = append(e.runq, g)
}

// passLocked gives up the caller's baton: to the head of the run queue, or,
// when the queue is empty, to whatever the next virtual instant wakes. If
// nothing is runnable and no event is pending, the simulation has quiesced
// and the baton is free.
func (e *VirtEnv) passLocked() {
	for len(e.runq) == 0 {
		if !e.advanceLocked() {
			e.cur = nil
			return
		}
	}
	g := e.runq[0]
	e.runq[0] = nil
	e.runq = e.runq[1:]
	e.cur = g
	g.wake <- struct{}{}
}

func (e *VirtEnv) pushLocked(ev *event) {
	e.seq++
	ev.seq = e.seq
	heap.Push(&e.events, ev)
}

// fireLocked performs ev's wake-up; the goroutines it wakes join the run
// queue behind everything already there.
func (e *VirtEnv) fireLocked(ev *event) {
	switch {
	case ev.g != nil:
		e.readyLocked(ev.g)
	case ev.w != nil:
		if !ev.w.done {
			ev.w.done = true
			e.parked--
			e.readyLocked(ev.w.g)
		}
	default:
		e.startLocked(ev.fn)
	}
}

// advanceLocked moves virtual time forward to the earliest pending event and
// fires every event due at that instant. It reports false when no event is
// pending.
func (e *VirtEnv) advanceLocked() bool {
	// Skip cancelled events.
	for len(e.events) > 0 && e.events[0].cancelled {
		heap.Pop(&e.events)
	}
	if len(e.events) == 0 {
		if e.parked > 0 && !e.stopped {
			// Release the scheduler lock before panicking so deferred
			// Shutdown calls on the unwinding path can still run.
			msg := fmt.Sprintf(
				"sim: deadlock at t=%v: %d goroutine(s) parked on channels with no pending events",
				e.now, e.parked)
			e.cur = nil
			e.mu.Unlock()
			panic(msg)
		}
		return false // simulation quiesced
	}
	if t := e.events[0].at; t > e.now {
		e.now = t
	}
	for len(e.events) > 0 && e.events[0].at <= e.now {
		ev := heap.Pop(&e.events).(*event)
		if !ev.cancelled {
			e.fireLocked(ev)
		}
	}
	return true
}

func (e *VirtEnv) newChanCore() chanCore {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &virtChan{env: e}
	e.chans = append(e.chans, c)
	return c
}

// virtChan shares the env lock so that park/wake and clock advancement are
// one atomic step — there is no lost-wakeup window.
type virtChan struct {
	env     *VirtEnv
	queue   []any
	waiters []*vWaiter
	closed  bool
}

type vWaiter struct {
	g    *vGoroutine
	v    any
	ok   bool
	done bool
}

func (c *virtChan) send(v any) bool {
	e := c.env
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.closed {
		return false
	}
	for len(c.waiters) > 0 {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		if w.done {
			continue
		}
		w.done, w.v, w.ok = true, v, true
		e.parked--
		e.readyLocked(w.g)
		return true
	}
	c.queue = append(c.queue, v)
	return true
}

func (c *virtChan) recv() (any, bool) { return c.recvDeadline(-1) }

func (c *virtChan) recvTimeout(d time.Duration) (any, bool, bool) {
	v, ok := c.recvDeadline(d)
	if !ok && !c.isClosed() {
		return nil, false, true
	}
	return v, ok, false
}

// recvDeadline blocks for a value; d < 0 means no deadline. Returns ok=false
// on close/shutdown/timeout; recvTimeout disambiguates timeout after the
// fact via isClosed, which is a benign race acceptable for its users
// (lease-protocol timeouts).
func (c *virtChan) recvDeadline(d time.Duration) (any, bool) {
	e := c.env
	e.mu.Lock()
	if len(c.queue) > 0 {
		v := c.popLocked()
		e.mu.Unlock()
		return v, true
	}
	if c.closed || e.stopped {
		e.mu.Unlock()
		return nil, false
	}
	w := &vWaiter{g: e.cur}
	c.waiters = append(c.waiters, w)
	e.parked++
	if d >= 0 {
		e.pushLocked(&event{at: e.now + d, w: w, onShutdown: true})
	}
	e.passLocked()
	e.mu.Unlock()
	<-w.g.wake
	return w.v, w.ok
}

func (c *virtChan) popLocked() any {
	v := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	return v
}

func (c *virtChan) close() {
	e := c.env
	e.mu.Lock()
	defer e.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.wakeAllLocked(false)
}

// wakeAllLocked releases every parked receiver with the given ok value.
func (c *virtChan) wakeAllLocked(ok bool) {
	for _, w := range c.waiters {
		if w.done {
			continue
		}
		w.done, w.ok = true, ok
		c.env.parked--
		c.env.readyLocked(w.g)
	}
	c.waiters = nil
}

func (c *virtChan) isClosed() bool {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	return c.closed || c.env.stopped
}

func (c *virtChan) len() int {
	c.env.mu.Lock()
	defer c.env.mu.Unlock()
	return len(c.queue)
}
