package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scramble is a per-item delay that puts completion order far from issue
// order: neighbouring indices finish up to 96 µs apart in either direction.
func scramble(i int) time.Duration {
	return time.Duration(1+(i*2654435761)%97) * time.Microsecond
}

// Limit 1, or fewer than two items per worker, is a plain loop on the caller:
// it never touches the environment (nil here), runs in index order and stops
// at the first error.
func TestFanOutRunsInlineBelowOneWorkersShare(t *testing.T) {
	for _, c := range []struct{ n, limit int }{{0, 16}, {1, 16}, {31, 16}, {1000, 1}, {1000, 0}, {7, 4}} {
		var order []int
		err := FanOut(nil, c.n, c.limit, func(i int) error {
			order = append(order, i)
			return nil
		})
		if err != nil || len(order) != c.n {
			t.Fatalf("n=%d limit=%d: ran %d items, err %v", c.n, c.limit, len(order), err)
		}
		for i, got := range order {
			if got != i {
				t.Fatalf("n=%d limit=%d: item %d ran at position %d", c.n, c.limit, got, i)
			}
		}
	}
	boom := errors.New("boom")
	ran := 0
	err := FanOut(nil, 10, 1, func(i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if err != boom || ran != 4 {
		t.Fatalf("inline failure: err %v after %d items, want boom after 4", err, ran)
	}
}

// Above the floor the items overlap, never more than limit at once, every
// item runs exactly once, and the batch takes the time of its rounds, not of
// its items.
func TestFanOutBoundsConcurrencyAndOverlaps(t *testing.T) {
	env := NewVirtEnv()
	env.Run(func() {
		const n, limit = 100, 4
		var inflight, peak atomic.Int32
		ran := make([]int, n)
		start := env.Now()
		err := FanOut(env, n, limit, func(i int) error {
			cur := inflight.Add(1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			env.Sleep(time.Millisecond)
			inflight.Add(-1)
			ran[i]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range ran {
			if c != 1 {
				t.Fatalf("item %d ran %d times", i, c)
			}
		}
		if p := peak.Load(); p != limit {
			t.Fatalf("peak concurrency %d, want %d", p, limit)
		}
		if took := env.Now() - start; took != n/limit*time.Millisecond {
			t.Fatalf("batch took %v, want %v (n/limit rounds)", took, n/limit*time.Millisecond)
		}
	})
}

// The error is that of the lowest failing index although a higher one fails
// first, every item below it ran to completion, and nothing new is claimed
// once a failure is known.
func TestFanOutReportsLowestFailingIndex(t *testing.T) {
	env := NewVirtEnv()
	env.Run(func() {
		const n, limit = 64, 8
		var mu sync.Mutex
		done := make(map[int]bool)
		err := FanOut(env, n, limit, func(i int) error {
			switch i {
			case 3:
				env.Sleep(500 * time.Microsecond) // fails last
			case 5:
				env.Sleep(10 * time.Microsecond) // fails first
			default:
				env.Sleep(scramble(i))
			}
			mu.Lock()
			done[i] = true
			mu.Unlock()
			if i == 3 || i == 5 {
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Fatalf("err = %v, want item 3's", err)
		}
		for i := 0; i < 3; i++ {
			if !done[i] {
				t.Fatalf("item %d below the failing index did not run", i)
			}
		}
		// Item 5 failed 10 µs in, when at most the first limit items and their
		// first successors had been claimed.
		if len(done) >= n/2 {
			t.Fatalf("%d of %d items ran after an early failure", len(done), n)
		}
	})
}

// On the wall clock, under the race detector: results stored by index from
// many goroutines, read by the caller after FanOut returns.
func TestFanOutRealEnvStoresByIndex(t *testing.T) {
	env := NewRealEnv()
	defer env.Shutdown()
	const n = 2000
	out := make([]int, n)
	if err := FanOut(env, n, 16, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}
