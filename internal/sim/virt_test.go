package sim

import (
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
