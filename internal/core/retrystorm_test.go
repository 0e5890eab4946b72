package core

import (
	"context"
	"errors"
	"testing"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// TestRetryStormBounded is the wire-call-count regression test for the
// retry loops of one doomed operation. A follower whose leader is unreachable
// used to multiply attempts across nested loops — the op-level retry, the
// resolve retry, and leader rediscovery each retried independently, so one
// Create could emit attempts^2 wire calls (a retry storm that amplifies
// exactly when the cluster is least able to absorb it). Now forward is the
// one loop that retries a forwarded operation (maxOpRetries = 8), and each
// of its rediscoveries asks the lease manager inside acquireLease's own
// AcquireRetries, so the wire calls of one doomed operation stay linear in
// those two caps.
func TestRetryStormBounded(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")

	ctx := context.Background()
	if err := c1.Mkdir(ctx, "/dir", 0777); err != nil {
		t.Fatal(err)
	}
	f, err := c1.Create(ctx, "/dir/seed", 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	// Cut c2 off from the leader in both directions; the lease manager stays
	// reachable, so rediscovery keeps answering "c1 leads" and every retry
	// path stays live until its cap stops it.
	plan := rpc.NewFaultPlan(tc.env, 1)
	plan.Partition([]rpc.Addr{c2.Addr()}, []rpc.Addr{c1.Addr()})
	plan.Partition([]rpc.Addr{c1.Addr()}, []rpc.Addr{c2.Addr()})
	tc.net.SetFaultPlan(plan)
	defer func() {
		plan.HealAll()
		tc.net.SetFaultPlan(nil)
	}()

	calls := reg.Counter("rpc.calls")
	before := calls.Value()
	_, err = c2.Create(ctx, "/dir/stormy", 0644)
	if err == nil {
		t.Fatal("create through a partition succeeded")
	}
	// The surfaced errno depends on which loop reaches its cap first:
	// ESTALE (leader unreachable), ETIMEDOUT, or EAGAIN are all honest.
	if !errors.Is(err, types.ErrTimedOut) && !errors.Is(err, types.ErrAgain) && !errors.Is(err, types.ErrStale) {
		t.Fatalf("err = %v, want timeout/pushback/stale", err)
	}
	wire := calls.Value() - before
	if wire == 0 {
		t.Fatal("no wire calls recorded; instrumentation broken")
	}
	// At most maxOpRetries+1 attempts, each a handful of wire calls (leader
	// lookup + forwarded op). Nested loops that each retried multiplied into
	// hundreds of calls here.
	const bound = 40
	if wire > bound {
		t.Fatalf("doomed create emitted %d wire calls, want ≤ %d (retry storm)", wire, bound)
	}
	t.Logf("doomed create: %d wire calls", wire)

	// The forwarded Open (the data-lease half of Open, after resolution) is
	// under the same bound. The path cannot be resolved through the
	// partition, so the leader supplies the inodes and the call is made
	// directly.
	dir, err := c1.Stat(ctx, "/dir")
	if err != nil {
		t.Fatal(err)
	}
	seed, err := c1.Stat(ctx, "/dir/seed")
	if err != nil {
		t.Fatal(err)
	}
	before = calls.Value()
	if _, _, err := c2.openDataLease(ctx, dir.Ino, "seed", seed, false); err == nil {
		t.Fatal("open through a partition succeeded")
	}
	if wire := calls.Value() - before; wire == 0 || wire > bound {
		t.Fatalf("doomed open emitted %d wire calls, want 1..%d", wire, bound)
	}
}
