package objstore

import (
	"errors"
	"testing"
	"time"

	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// fastPolicy keeps real-time tests snappy.
func fastPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, InitialBackoff: 50 * time.Microsecond}
}

func TestRetryStoreContract(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	storeContract(t, NewRetryStore(env, NewMemStore(), fastPolicy()))
}

func TestRetryStoreRetriesTransientWrites(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fs := NewFaultStore(NewMemStore())
	rs := NewRetryStore(env, fs, fastPolicy())
	fs.FailNext("k", 2)
	if err := rs.Put("k1", []byte("v")); err != nil {
		t.Fatalf("Put should succeed after retries: %v", err)
	}
	if got := rs.RetryStats().Put.Load(); got != 2 {
		t.Fatalf("Put retries = %d, want 2", got)
	}
	if got := rs.RetryStats().Exhausted.Load(); got != 0 {
		t.Fatalf("Exhausted = %d, want 0", got)
	}
	if v, err := fs.Get("k1"); err != nil || string(v) != "v" {
		t.Fatalf("value not stored: %q %v", v, err)
	}
}

func TestRetryStoreRetriesTransientReads(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fs := NewFaultStore(NewMemStore())
	rs := NewRetryStore(env, fs, fastPolicy())
	if err := fs.Put("k1", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fs.FailNextRead("k", 1)
	if v, err := rs.Get("k1"); err != nil || string(v) != "v" {
		t.Fatalf("Get after retry: %q %v", v, err)
	}
	fs.FailNextRead("k", 1)
	if v, err := rs.GetRange("k1", 0, 1); err != nil || string(v) != "v" {
		t.Fatalf("GetRange after retry: %q %v", v, err)
	}
	fs.FailNextRead("k", 1)
	if keys, err := rs.List("k"); err != nil || len(keys) != 1 {
		t.Fatalf("List after retry: %v %v", keys, err)
	}
	fs.FailNextRead("k", 1)
	if n, err := rs.Head("k1"); err != nil || n != 1 {
		t.Fatalf("Head after retry: %d %v", n, err)
	}
	st := rs.RetryStats()
	if st.Get.Load() != 1 || st.GetRange.Load() != 1 || st.List.Load() != 1 || st.Head.Load() != 1 {
		t.Fatalf("per-verb retries = get:%d range:%d list:%d head:%d, want 1 each",
			st.Get.Load(), st.GetRange.Load(), st.List.Load(), st.Head.Load())
	}
	if st.Retries() != 4 {
		t.Fatalf("Retries() = %d, want 4", st.Retries())
	}
}

func TestRetryStoreDoesNotRetryPermanentErrors(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fs := NewFaultStore(NewMemStore())
	rs := NewRetryStore(env, fs, fastPolicy())
	if _, err := rs.Get("missing"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("Get missing = %v, want ErrNotExist", err)
	}
	// One underlying attempt, zero retries: ErrNotExist is semantic, not
	// transient, and retrying it would only hide bugs and waste budget.
	if got := fs.Ops(); got != 1 {
		t.Fatalf("inner ops = %d, want 1", got)
	}
	if got := rs.RetryStats().Retries(); got != 0 {
		t.Fatalf("retries = %d, want 0", got)
	}
}

func TestRetryStoreExhaustsBudget(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fs := NewFaultStore(NewMemStore())
	p := fastPolicy()
	rs := NewRetryStore(env, fs, p)
	fs.FailNext("k", 100)
	err := rs.Put("k1", []byte("v"))
	if !errors.Is(err, types.ErrIO) {
		t.Fatalf("want wrapped ErrIO, got %v", err)
	}
	if got := fs.Ops(); got != p.MaxAttempts {
		t.Fatalf("inner attempts = %d, want %d", got, p.MaxAttempts)
	}
	if got := rs.RetryStats().Exhausted.Load(); got != 1 {
		t.Fatalf("Exhausted = %d, want 1", got)
	}
}

func TestRetryStoreVirtualTimeBackoffDeterministic(t *testing.T) {
	elapsed := func() time.Duration {
		env := sim.NewVirtEnv()
		var d time.Duration
		env.Run(func() {
			fs := NewFaultStore(NewMemStore())
			rs := NewRetryStore(env, fs, fastPolicy())
			fs.FailNext("k", 3)
			start := env.Now()
			if err := rs.Put("k1", []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
			}
			d = env.Now() - start
		})
		return d
	}
	d1, d2 := elapsed(), elapsed()
	if d1 != d2 {
		t.Fatalf("virtual-time backoff not deterministic: %v vs %v", d1, d2)
	}
	// Three retries of a 50µs initial backoff must advance the clock.
	if d1 < 150*time.Microsecond {
		t.Fatalf("backoff too short: %v", d1)
	}
}

// TestRetryStoreAttemptBudgetDeadline: with attempts to spare, an op that
// keeps failing gives up at retryDeadline. Waits grow from 100ms to the
// 500ms cap, each stretched by up to 25%, so the op stops once its next wait
// would end past the deadline: no earlier than one maximal wait before it.
func TestRetryStoreAttemptBudgetDeadline(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fs := NewFaultStore(NewMemStore())
		rs := NewRetryStore(env, fs, RetryPolicy{MaxAttempts: 1000, InitialBackoff: 100 * time.Millisecond})
		fs.FailNext("k", 1000)
		start := env.Now()
		err := rs.Put("k1", []byte("v"))
		elapsed := env.Now() - start
		if !errors.Is(err, types.ErrIO) {
			t.Errorf("want ErrIO, got %v", err)
		}
		if maxWait := maxBackoff * 5 / 4; elapsed >= retryDeadline || elapsed < retryDeadline-maxWait {
			t.Errorf("gave up after %v, want within %v before the %v deadline", elapsed, maxWait, retryDeadline)
		}
		if fs.Ops() >= 1000 {
			t.Errorf("inner attempts = %d: the attempt budget, not the deadline, ended the op", fs.Ops())
		}
	})
}

// TestRetryStoreHonorsLongInitialBackoff: an initial backoff above
// maxBackoff is waited in full (give or take the jitter), not cut to the cap.
func TestRetryStoreHonorsLongInitialBackoff(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fs := NewFaultStore(NewMemStore())
		const initial = 2 * time.Second
		rs := NewRetryStore(env, fs, RetryPolicy{MaxAttempts: 2, InitialBackoff: initial})
		fs.FailNext("k", 1)
		start := env.Now()
		if err := rs.Put("k1", []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		if waited := env.Now() - start; waited < initial*3/4 || waited > initial*5/4 {
			t.Errorf("waited %v after the first failure, want %v ± 25%%", waited, initial)
		}
	})
}
