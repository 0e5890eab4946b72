package core

import (
	"context"
	"fmt"
	"testing"

	"arkfs/internal/obs"
)

// withObs attaches a fresh registry to a test client's options.
func withObs(reg *obs.Registry) func(*Options) {
	return func(o *Options) { o.Obs = reg }
}

// TestMetricsJournalAppendAccuracy: N creates append exactly N transactions
// to the directory's journal, and each rides the core.op.open histogram.
func TestMetricsJournalAppendAccuracy(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	c := tc.client(t, "a", withObs(reg))
	ctx := context.Background()

	if err := c.Mkdir(ctx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()

	const n = 25
	for i := 0; i < n; i++ {
		f, err := c.Create(ctx, fmt.Sprintf("/d/f%02d", i), 0644)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	after := reg.Snapshot()

	if got := after.Counters["journal.appends"] - before.Counters["journal.appends"]; got != n {
		t.Fatalf("journal.appends delta = %d, want %d", got, n)
	}
	if got := after.Histograms["core.op.open"].Count - before.Histograms["core.op.open"].Count; got != n {
		t.Fatalf("core.op.open count delta = %d, want %d", got, n)
	}
	if got := after.Counters["core.meta.local"]; got == 0 {
		t.Fatal("core.meta.local = 0, want > 0")
	}
}

// TestMetricsRedirectedCountedBothSides: a forwarded create shows up as a
// remote op on the requester's registry and as local leader work on the
// leader's registry, and the requester's trace span records the remote route.
func TestMetricsRedirectedCountedBothSides(t *testing.T) {
	tc := newTestCluster(t)
	r1, r2 := obs.NewRegistry(), obs.NewRegistry()
	c1 := tc.client(t, "leader", withObs(r1))
	c2 := tc.client(t, "peer", withObs(r2))
	ctx := context.Background()

	// c1 becomes the leader of /shared.
	if err := c1.Mkdir(ctx, "/shared", 0777); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Readdir(ctx, "/shared"); err != nil {
		t.Fatal(err)
	}
	leaderLocalBefore := r1.Snapshot().Counters["core.meta.local"]

	// c2's create in /shared is forwarded to c1.
	f, err := c2.Create(ctx, "/shared/from-peer", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got := r2.Snapshot().Counters["core.meta.remote"]; got == 0 {
		t.Fatal("requester: core.meta.remote = 0, want > 0")
	}
	if got := r1.Snapshot().Counters["core.meta.local"]; got <= leaderLocalBefore {
		t.Fatalf("leader: core.meta.local did not advance (%d -> %d)", leaderLocalBefore, got)
	}

	// The requester's trace ring holds the forwarded open with a remote route.
	var sawRemote bool
	for _, sp := range c2.Tracer().Spans() {
		if sp.Op == "open" && sp.Route == obs.RouteRemote {
			sawRemote = true
		}
	}
	if !sawRemote {
		t.Fatalf("no remote-routed open span in requester trace:\n%s", c2.Tracer().Dump(0))
	}
}

// TestClientCloseIdempotent: a second Close is a no-op returning nil, both on
// the raw client and through the fsapi adapter.
func TestClientCloseIdempotent(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/x", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestStatsAccessorWithoutObs: the Stats/Registry/Tracer accessors are safe
// when the client was built without a registry (nil sink, zero overhead).
func TestStatsAccessorWithoutObs(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/y", 0777); err != nil {
		t.Fatal(err)
	}
	snap := c.Stats()
	if len(snap.Counters) != 0 {
		t.Fatalf("uninstrumented client reported counters: %v", snap.Counters)
	}
	if c.Registry() != nil {
		t.Fatal("Registry() should be nil without Options.Obs")
	}
	if c.Tracer().Total() != 0 {
		t.Fatal("nil tracer should report zero spans")
	}
}

// TestLeaderLocalStatAllocs: a warm stat that this client serves from its
// own metatables allocates the context that carries its envelope and retry
// budget, and the copy of the inode it returns. The directories the walk
// crosses are read in place, and the names stay on the walk's stack.
func TestLeaderLocalStatAllocs(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	ctx := context.Background()
	for _, dir := range []string{"/b", "/b/c"} {
		if err := c.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	if err := createFile(c, "/b/c/f"); err != nil {
		t.Fatal(err)
	}
	stat := func() {
		if _, err := c.Stat(ctx, "/b/c/f"); err != nil {
			t.Fatal(err)
		}
	}
	stat()
	if !c.Leads(statIno(t, c, "/b/c")) {
		t.Fatal("setup: the client does not lead /b/c")
	}
	// Background ticks (lease keeper, journal) allocate too; over 1000 runs
	// they do not reach one per stat.
	if n := testing.AllocsPerRun(1000, stat); n > 2 {
		t.Fatalf("a leader-local stat makes %v allocations, want ≤ 2", n)
	}
}

// BenchmarkStatNoObs / BenchmarkStatWithObs: the observability layer's
// overhead on the hottest metadata path must stay small (the acceptance bar
// is <=5% with a no-op sink; with a live registry the cost is a few atomics).
func BenchmarkStatNoObs(b *testing.B)   { benchmarkStat(b, nil) }
func BenchmarkStatWithObs(b *testing.B) { benchmarkStat(b, obs.NewRegistry()) }

func benchmarkStat(b *testing.B, reg *obs.Registry) {
	tc := newTestCluster(b)
	var opts []func(*Options)
	if reg != nil {
		opts = append(opts, withObs(reg))
	}
	c := tc.client(b, "bench", opts...)
	ctx := context.Background()
	if err := c.Mkdir(ctx, "/b", 0777); err != nil {
		b.Fatal(err)
	}
	f, err := c.Create(ctx, "/b/f", 0644)
	if err != nil {
		b.Fatal(err)
	}
	_ = f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Stat(ctx, "/b/f"); err != nil {
			b.Fatal(err)
		}
	}
}
