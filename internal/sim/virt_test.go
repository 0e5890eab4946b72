package sim

import (
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestVirtSleepAdvancesClock(t *testing.T) {
	env := NewVirtEnv()
	env.Run(func() {
		if env.Now() != 0 {
			t.Errorf("epoch: %v", env.Now())
		}
		env.Sleep(5 * time.Second)
		if env.Now() != 5*time.Second {
			t.Errorf("after sleep: %v", env.Now())
		}
		env.Sleep(time.Millisecond)
		if env.Now() != 5*time.Second+time.Millisecond {
			t.Errorf("after second sleep: %v", env.Now())
		}
	})
}

func TestVirtParallelSleepersShareTime(t *testing.T) {
	// 100 goroutines each "work" 1s concurrently: virtual completion is 1s,
	// not 100s.
	env := NewVirtEnv()
	var done time.Duration
	env.Run(func() {
		g := NewGroup(env)
		for i := 0; i < 100; i++ {
			g.Go(func() { env.Sleep(time.Second) })
		}
		g.Wait()
		done = env.Now()
	})
	if done != time.Second {
		t.Fatalf("parallel sleep finished at %v, want 1s", done)
	}
}

func TestVirtSerializedServerQueueing(t *testing.T) {
	// One server with 10ms service time and 10 clients: the last response
	// arrives at 100ms — pure queueing, the property the MDS model needs.
	env := NewVirtEnv()
	var last time.Duration
	env.Run(func() {
		req := NewChan[*Chan[struct{}]](env)
		env.Go(func() {
			for {
				reply, ok := req.Recv()
				if !ok {
					return
				}
				env.Sleep(10 * time.Millisecond)
				reply.Send(struct{}{})
			}
		})
		g := NewGroup(env)
		for i := 0; i < 10; i++ {
			g.Go(func() {
				reply := NewChan[struct{}](env)
				req.Send(reply)
				reply.Recv()
				e := env.Now()
				if e > last {
					last = e
				}
			})
		}
		g.Wait()
	})
	if last != 100*time.Millisecond {
		t.Fatalf("last completion at %v, want 100ms", last)
	}
}

func TestVirtChanFIFO(t *testing.T) {
	env := NewVirtEnv()
	env.Run(func() {
		ch := NewChan[int](env)
		for i := 0; i < 10; i++ {
			ch.Send(i)
		}
		for i := 0; i < 10; i++ {
			v, ok := ch.Recv()
			if !ok || v != i {
				t.Fatalf("recv %d: got %d ok=%v", i, v, ok)
			}
		}
	})
}

// TestFifoKeepsOrderAndArray: the channel queue pops in push order across
// the moves that reuse its array, and a queue whose length holds steady (an
// rpc server's slot tokens) stops allocating.
func TestFifoKeepsOrderAndArray(t *testing.T) {
	var q fifo[int]
	var ref []int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		if r := rng.Intn(6); r == 0 {
			q.pushFront(i)
			ref = append([]int{i}, ref...)
		} else if r > 2 || len(ref) == 0 {
			q.push(i)
			ref = append(ref, i)
		} else if v := q.pop(); v != ref[0] {
			t.Fatalf("op %d: popped %d, want %d", i, v, ref[0])
		} else {
			ref = ref[1:]
		}
		if q.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", i, q.len(), len(ref))
		}
	}

	var slots fifo[int]
	for i := 0; i < 16; i++ {
		slots.push(i)
	}
	slots.push(slots.pop()) // the one growth a steady length needs
	if n := testing.AllocsPerRun(1000, func() { slots.push(slots.pop()) }); n != 0 {
		t.Fatalf("a steady queue allocates %.2f times per pop and push, want 0", n)
	}
}

func TestVirtChanCloseWakesReceiver(t *testing.T) {
	env := NewVirtEnv()
	env.Run(func() {
		ch := NewChan[int](env)
		g := NewGroup(env)
		g.Go(func() {
			if _, ok := ch.Recv(); ok {
				t.Error("recv on closed chan returned ok")
			}
		})
		env.Sleep(time.Millisecond)
		ch.Close()
		g.Wait()
	})
}

func TestVirtRecvTimeout(t *testing.T) {
	env := NewVirtEnv()
	env.Run(func() {
		ch := NewChan[int](env)
		start := env.Now()
		_, ok, timedOut := ch.RecvTimeout(50 * time.Millisecond)
		if ok || !timedOut {
			t.Fatalf("want timeout, got ok=%v timedOut=%v", ok, timedOut)
		}
		if env.Now()-start != 50*time.Millisecond {
			t.Fatalf("timeout took %v", env.Now()-start)
		}
		// Value arriving before deadline wins.
		env.Go(func() {
			env.Sleep(10 * time.Millisecond)
			ch.Send(7)
		})
		v, ok, timedOut := ch.RecvTimeout(time.Hour)
		if !ok || timedOut || v != 7 {
			t.Fatalf("got v=%d ok=%v timedOut=%v", v, ok, timedOut)
		}
	})
}

func TestVirtAfterAndCancel(t *testing.T) {
	env := NewVirtEnv()
	var fired, cancelled atomic.Int32
	env.Run(func() {
		env.After(10*time.Millisecond, func() { fired.Add(1) })
		cancel := env.After(20*time.Millisecond, func() { cancelled.Add(1) })
		if !cancel() {
			t.Error("cancel should succeed before firing")
		}
		env.Sleep(time.Second)
	})
	if fired.Load() != 1 {
		t.Errorf("fired = %d, want 1", fired.Load())
	}
	if cancelled.Load() != 0 {
		t.Errorf("cancelled callback ran")
	}
}

func TestVirtDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	env := NewVirtEnv()
	env.Run(func() {
		ch := NewChan[int](env)
		ch.Recv() // nothing will ever send
	})
}

func TestVirtShutdownStopsBackgroundLoops(t *testing.T) {
	env := NewVirtEnv()
	var ticks atomic.Int32
	env.Run(func() {
		env.Go(func() {
			for !env.Stopped() {
				env.Sleep(time.Second)
				ticks.Add(1)
			}
		})
		env.Sleep(3500 * time.Millisecond)
	})
	// Run calls Shutdown on exit; the loop must have stopped by now.
	n := ticks.Load()
	if n < 3 {
		t.Fatalf("loop ticked %d times, want >=3", n)
	}
}

func TestVirtShutdownWakesParkedReceivers(t *testing.T) {
	// Receivers still parked when the simulation ends, with and without a
	// deadline, are released by Shutdown as closed, not timed out.
	type outcome struct{ ok, timedOut bool }
	got := make(chan outcome, 2)
	env := NewVirtEnv()
	env.Run(func() {
		a, b := NewChan[int](env), NewChan[int](env)
		env.Go(func() {
			_, ok := a.Recv()
			got <- outcome{ok, false}
		})
		env.Go(func() {
			_, ok, timedOut := b.RecvTimeout(time.Hour)
			got <- outcome{ok, timedOut}
		})
		env.Sleep(time.Millisecond)
	})
	for i := 0; i < 2; i++ {
		select {
		case o := <-got:
			if o.ok || o.timedOut {
				t.Errorf("receiver released with ok=%v timedOut=%v, want closed", o.ok, o.timedOut)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Shutdown left a receiver parked")
		}
	}
}

func TestVirtRegistryHoldsOnlyParkedReceivers(t *testing.T) {
	// Shutdown needs only the receivers that are parked, so a run that makes
	// 10^5 channels and uses each once leaves the registry no larger than
	// its tracked goroutines: here the four still parked.
	const parkedForGood = 4
	env := NewVirtEnv()
	var registered, counted int
	env.Run(func() {
		for i := 0; i < parkedForGood; i++ {
			ch := NewChan[int](env)
			env.Go(func() { ch.Recv() })
		}
		for i := 0; i < 100000; i++ {
			ch := NewChan[int](env)
			if i%2 == 0 { // the receiver parks, then a sender wakes it
				env.Go(func() { ch.Send(i) })
			} else {
				ch.Send(i)
			}
			if v, ok := ch.Recv(); !ok || v != i {
				t.Fatalf("recv %d = %d, %v", i, v, ok)
			}
		}
		env.mu.Lock()
		registered = env.parked
		for w := env.firstParked; w != nil; w = w.next {
			counted++
		}
		env.mu.Unlock()
	})
	if registered != parkedForGood || counted != parkedForGood {
		t.Fatalf("registry holds %d (counted %d) waiters, want the %d parked receivers",
			registered, counted, parkedForGood)
	}
}

func TestVirtDeterministicOrdering(t *testing.T) {
	// Two runs of the same event program produce identical completion times.
	run := func() []time.Duration {
		env := NewVirtEnv()
		out := make([]time.Duration, 5)
		env.Run(func() {
			g := NewGroup(env)
			for i := 0; i < 5; i++ {
				i := i
				g.Go(func() {
					env.Sleep(time.Duration(i+1) * 7 * time.Millisecond)
					out[i] = env.Now()
				})
			}
			g.Wait()
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestVirtOneBatonFIFO(t *testing.T) {
	// Goroutines runnable at one instant run one at a time, in the order
	// they were made runnable: started ones in Go order, sleepers due
	// together in Sleep order. The shared slice has no lock; under -race
	// this also checks that no two tracked goroutines ever overlap.
	env := NewVirtEnv()
	var order []int
	env.Run(func() {
		g := NewGroup(env)
		for i := 0; i < 20; i++ {
			g.Go(func() {
				order = append(order, i)
				env.Sleep(time.Millisecond)
				order = append(order, 100+i)
			})
		}
		g.Wait()
	})
	for i := 0; i < 20; i++ {
		if order[i] != i || order[20+i] != 100+i {
			t.Fatalf("run order %v", order)
		}
	}
}

func TestYield(t *testing.T) {
	// A yielding goroutine runs on after every goroutine already runnable,
	// and ahead of one made runnable later. With nothing else runnable it
	// returns at once: the clock stays put and no pending wake fires first.
	env := NewVirtEnv()
	var order []string
	env.Run(func() {
		g := NewGroup(env)
		g.Go(func() {
			order = append(order, "a1")
			env.Yield()
			order = append(order, "a2")
		})
		g.Go(func() { order = append(order, "b") })
		g.Go(func() {
			order = append(order, "c")
			env.Go(func() { order = append(order, "d") })
		})
		g.Wait()
		env.Go(func() {
			env.Sleep(time.Millisecond)
			order = append(order, "sleeper")
		})
		env.Sleep(0) // the sleeper starts and parks
		start := env.Now()
		env.Yield()
		if env.Now() != start {
			t.Errorf("a lone Yield moved the clock %v", env.Now()-start)
		}
		order = append(order, "alone")
		env.Sleep(time.Second)
	})
	if got := strings.Join(order, " "); got != "a1 b c a2 d alone sleeper" {
		t.Fatalf("run order %q", got)
	}
	NewRealEnv().Yield() // returns
}

func TestSendNext(t *testing.T) {
	// The receiver SendNext wakes runs before every goroutine already
	// runnable, while Send puts it behind them. The sender keeps the baton
	// until it parks. With no receiver waiting, the value is queued.
	for _, next := range []bool{true, false} {
		env := NewVirtEnv()
		var order []string
		env.Run(func() {
			ch := NewChan[string](env)
			g := NewGroup(env)
			g.Go(func() {
				v, _ := ch.Recv()
				order = append(order, v)
			})
			env.Sleep(0) // the receiver parks
			g.Go(func() { order = append(order, "b") })
			g.Go(func() { order = append(order, "c") })
			if next {
				ch.SendNext("r")
			} else {
				ch.Send("r")
			}
			order = append(order, "s")
			g.Wait()
			ch.SendNext("queued")
			if v, ok := ch.Recv(); !ok || v != "queued" {
				t.Errorf("SendNext with no receiver: got %q, %v", v, ok)
			}
		})
		want := map[bool]string{true: "s r b c", false: "s b c r"}[next]
		if got := strings.Join(order, " "); got != want {
			t.Fatalf("SendNext=%v: run order %q, want %q", next, got, want)
		}
	}
	// In a RealEnv SendNext is Send.
	env := NewRealEnv()
	ch := NewChan[int](env)
	env.Go(func() { ch.SendNext(7) })
	if v, ok := ch.Recv(); !ok || v != 7 {
		t.Fatalf("real SendNext: got %d, %v", v, ok)
	}
	ch.Close()
	if ch.SendNext(8) {
		t.Fatal("SendNext on a closed channel reported delivery")
	}
}

func TestRealEnvBasics(t *testing.T) {
	env := NewRealEnv()
	start := env.Now()
	env.Sleep(5 * time.Millisecond)
	if env.Now()-start < 4*time.Millisecond {
		t.Fatal("real sleep too short")
	}
	ch := NewChan[int](env)
	env.Go(func() { ch.Send(42) })
	if v, ok := ch.Recv(); !ok || v != 42 {
		t.Fatalf("got %d ok=%v", v, ok)
	}
	_, ok, timedOut := ch.RecvTimeout(5 * time.Millisecond)
	if ok || !timedOut {
		t.Fatalf("want timeout, ok=%v timedOut=%v", ok, timedOut)
	}
	var n atomic.Int32
	cancel := env.After(time.Hour, func() { n.Add(1) })
	if !cancel() {
		t.Error("cancel failed")
	}
	env.Shutdown()
	start2 := time.Now()
	env.Sleep(time.Hour) // must return immediately after shutdown
	if time.Since(start2) > time.Second {
		t.Fatal("sleep after shutdown did not return promptly")
	}
}

func TestRealEnvShutdownWakesSleepers(t *testing.T) {
	env := NewRealEnv()
	done := make(chan struct{})
	go func() {
		env.Sleep(time.Hour)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	env.Shutdown()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper not woken by Shutdown")
	}
}

func TestNetModelTransferTime(t *testing.T) {
	m := NetModel{Latency: time.Millisecond, Bandwidth: 1 << 30} // 1 GiB/s
	if got := m.TransferTime(0); got != time.Millisecond {
		t.Errorf("zero-size transfer: %v", got)
	}
	got := m.TransferTime(1 << 30)
	want := time.Millisecond + time.Second
	if got != want {
		t.Errorf("1GiB transfer: %v, want %v", got, want)
	}
	unlimited := NetModel{Latency: time.Microsecond}
	if unlimited.TransferTime(1<<40) != time.Microsecond {
		t.Error("unlimited bandwidth should only charge latency")
	}
}
