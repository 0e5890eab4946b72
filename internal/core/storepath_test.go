package core

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"arkfs/internal/crashpoint"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/qos"
	"arkfs/internal/types"
)

// TestStoreLayerOrder asserts the order New stacks the store layers in
// (DESIGN.md §7.3) by what a caller sees, one subtest per adjacency. Each
// fails if its two layers are swapped.
func TestStoreLayerOrder(t *testing.T) {
	retry := &objstore.RetryPolicy{MaxAttempts: 8, InitialBackoff: 20 * time.Microsecond, MaxBackoff: 40 * time.Microsecond}

	t.Run("breaker under retry", func(t *testing.T) {
		tc := newTestCluster(t)
		c := tc.client(t, "a", func(o *Options) {
			o.Retry = retry
			o.Breaker = &qos.BreakerConfig{Threshold: 3, Cooldown: time.Hour}
		})
		tc.fault.FailNext("x/", 1000)
		before := tc.fault.Ops()
		err := c.tr.Store().Put("x/k", []byte("v"))
		if !errors.Is(err, types.ErrAgain) || strings.Contains(err.Error(), "gave up") {
			t.Fatalf("PUT over a dead backend: %v, want the open breaker's EAGAIN", err)
		}
		if got := tc.fault.Ops() - before; got != 3 {
			t.Fatalf("backend saw %d attempts, want 3: the breaker's threshold, not MaxAttempts = %d", got, retry.MaxAttempts)
		}
	})

	t.Run("instrument under retry", func(t *testing.T) {
		tc := newTestCluster(t)
		reg := obs.NewRegistry()
		c := tc.client(t, "a", func(o *Options) { o.Retry, o.Obs = retry, reg })
		before := reg.Snapshot().Counters
		tc.fault.FailNext("x/", 2)
		if err := c.tr.Store().Put("x/k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		after := reg.Snapshot().Counters
		if puts, retries := after["objstore.put"]-before["objstore.put"], after["objstore.retries"]-before["objstore.retries"]; puts != 3 || retries != 2 {
			t.Fatalf("one PUT that succeeds on its third attempt: objstore.put +%d, objstore.retries +%d, want +3 and +2", puts, retries)
		}
	})

	t.Run("kill gate over retry", func(t *testing.T) {
		tc := newTestCluster(t)
		set := crashpoint.NewSet()
		c := tc.client(t, "a", func(o *Options) { o.Retry, o.Crash = retry, set })
		set.Kill()
		before := tc.fault.Ops()
		if err := c.tr.Store().Put("x/k", []byte("v")); !errors.Is(err, types.ErrIO) {
			t.Fatalf("PUT from a killed client: %v", err)
		}
		if ops, retries := tc.fault.Ops()-before, c.RetryStats().Retries(); ops != 0 || retries != 0 {
			t.Fatalf("a killed client reached the backend %d times and retried %d times, want 0 and 0", ops, retries)
		}
	})
}

// TestNewLeavesCallersTranslatorAlone: the translator handed to New is the
// caller's, shared by every client of a deployment; New reads its store and
// chunk size and writes nothing to it.
func TestNewLeavesCallersTranslatorAlone(t *testing.T) {
	t.Run("concurrent mounts", func(t *testing.T) { // a test under -race
		tc := newTestCluster(t)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				tc.client(t, id)
			}(string(rune('a' + i)))
		}
		wg.Wait()
	})

	t.Run("caller's registry keeps counting", func(t *testing.T) {
		tc := newTestCluster(t)
		reg := obs.NewRegistry()
		tc.tr.SetObs(reg)
		tc.client(t, "a")
		tc.fault.CorruptNextRead("i:", 1)
		if _, err := tc.tr.LoadInode(types.RootIno); !errors.Is(err, types.ErrIntegrity) {
			t.Fatalf("corrupt read of the root inode: %v", err)
		}
		if got := reg.Snapshot().Counters["integrity.detected"]; got != 1 {
			t.Fatalf("integrity.detected on the caller's registry = %d, want 1", got)
		}
	})
}
