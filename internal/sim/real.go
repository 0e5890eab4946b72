package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// RealEnv runs on the wall clock with ordinary goroutines. It is the
// environment used by tests of functional behavior and by the live tools.
type RealEnv struct {
	epoch   time.Time
	stopped atomic.Bool
	// sleepers are woken early by Shutdown.
	mu       sync.Mutex
	sleepers map[chan struct{}]struct{}
}

// NewRealEnv returns a wall-clock environment whose epoch is now.
func NewRealEnv() *RealEnv {
	return &RealEnv{epoch: time.Now(), sleepers: make(map[chan struct{}]struct{})}
}

// Now implements Env.
func (e *RealEnv) Now() time.Duration { return time.Since(e.epoch) }

// Sleep implements Env; Shutdown interrupts it.
func (e *RealEnv) Sleep(d time.Duration) {
	if d <= 0 || e.stopped.Load() {
		return
	}
	ch := make(chan struct{})
	e.mu.Lock()
	e.sleepers[ch] = struct{}{}
	e.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ch:
	}
	e.mu.Lock()
	delete(e.sleepers, ch)
	e.mu.Unlock()
}

// Go implements Env.
func (e *RealEnv) Go(fn func()) { go fn() }

// After implements Env.
func (e *RealEnv) After(d time.Duration, fn func()) func() bool {
	t := time.AfterFunc(d, fn)
	return t.Stop
}

// Shutdown implements Env.
func (e *RealEnv) Shutdown() {
	if e.stopped.Swap(true) {
		return
	}
	e.mu.Lock()
	for ch := range e.sleepers {
		close(ch)
	}
	e.sleepers = make(map[chan struct{}]struct{})
	e.mu.Unlock()
}

// Stopped implements Env.
func (e *RealEnv) Stopped() bool { return e.stopped.Load() }

func (e *RealEnv) newChanCore() chanCore { return newRealChan() }

// realChan is an unbounded queue with cond-based blocking.
type realChan struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []any
	closed bool
}

func newRealChan() *realChan {
	c := &realChan{}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *realChan) send(v any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false
	}
	c.queue = append(c.queue, v)
	c.cond.Signal()
	return true
}

func (c *realChan) recv() (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		c.cond.Wait()
	}
	return c.popLocked()
}

func (c *realChan) recvTimeout(d time.Duration) (any, bool, bool) {
	deadline := time.Now().Add(d)
	timedOut := false
	timer := time.AfterFunc(d, func() {
		c.mu.Lock()
		timedOut = true
		c.mu.Unlock()
		c.cond.Broadcast()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue) == 0 && !c.closed {
		if timedOut || !time.Now().Before(deadline) {
			return nil, false, true
		}
		c.cond.Wait()
	}
	v, ok := c.popLocked()
	return v, ok, false
}

// popLocked removes the queue head; callers hold c.mu and have ensured the
// queue is non-empty or the channel closed.
func (c *realChan) popLocked() (any, bool) {
	if len(c.queue) == 0 {
		return nil, false
	}
	v := c.queue[0]
	c.queue[0] = nil
	c.queue = c.queue[1:]
	return v, true
}

func (c *realChan) close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
}

func (c *realChan) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
