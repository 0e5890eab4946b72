package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"arkfs/internal/crashpoint"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// TestCrashStopsLeaseExtensions: once a client crashes, its leaseKeeper must
// stop extending, so a successor acquires the directory within roughly one
// lease period plus the recovery grace. A regression here (the keeper
// surviving Crash) would redirect the successor forever.
func TestCrashStopsLeaseExtensions(t *testing.T) {
	const lp = 200 * time.Millisecond
	env := sim.NewVirtEnv()
	env.Run(func() {
		store := objstore.NewMemStore()
		tr := prt.New(store, 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		mgr := lease.NewManager(net, lease.Options{Period: lp})
		defer mgr.Close()

		a := New(net, tr, Options{
			ID: "a", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
			Journal: journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2},
		})
		if err := a.Mkdir(context.Background(), "/d", 0777); err != nil {
			t.Fatal(err)
		}
		node, err := a.Stat(context.Background(), "/d")
		if err != nil {
			t.Fatal(err)
		}
		if f, err := a.Create(context.Background(), "/d/f", 0644); err != nil {
			t.Fatal(err)
		} else if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if !a.Leads(node.Ino) {
			t.Fatal("client a should lead /d")
		}

		crashAt := env.Now()
		a.Crash()

		succ := &lease.Client{Net: net, Mgr: mgr.Addr(), Self: "succ"}
		for {
			resp, err := succ.Acquire(context.Background(), node.Ino)
			if err != nil {
				t.Fatalf("successor acquire: %v", err)
			}
			if resp.Granted {
				if !resp.NeedRecovery {
					t.Fatalf("successor grant must carry NeedRecovery: %+v", resp)
				}
				break
			}
			if env.Now()-crashAt > 3*lp {
				t.Fatalf("successor still not granted %v after the crash: %+v", env.Now()-crashAt, resp)
			}
			env.Sleep(lp / 8)
		}
		// Expiry of the dead lease (≤ one period) plus the data-lease grace
		// (one period): anything much beyond that means extensions leaked.
		if waited := env.Now() - crashAt; waited > 2*lp+lp/2 {
			t.Fatalf("successor waited %v, want ≤ %v", waited, 2*lp+lp/2)
		}
	})
}

// TestAcquireRidesOutManagerQuiesce: a lease-manager restart answers acquires
// with an explicit retry-after hint (quiesce, then the conservative recovery
// grace); the client's acquire loop must honor the hints and complete the
// operation instead of burning its retry budget.
func TestAcquireRidesOutManagerQuiesce(t *testing.T) {
	const lp = 200 * time.Millisecond
	env := sim.NewVirtEnv()
	env.Run(func() {
		store := objstore.NewMemStore()
		tr := prt.New(store, 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		mgr := lease.NewManager(net, lease.Options{Period: lp})

		c := New(net, tr, Options{
			ID: "c", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
			Journal:        journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2},
			AcquireRetries: 16,
		})
		defer func() { _ = c.Close() }()
		if err := c.Mkdir(context.Background(), "/d", 0777); err != nil {
			t.Fatal(err)
		}
		if f, err := c.Create(context.Background(), "/d/a", 0644); err != nil {
			t.Fatal(err)
		} else if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(context.Background()); err != nil {
			t.Fatal(err)
		}

		// Manager crash: leases lapse while it is down, then it restarts into
		// the quiesce state.
		mgr.Close()
		env.Sleep(2 * lp)
		mgr2 := lease.NewManager(net, lease.Options{Period: lp, Restarted: true})
		defer mgr2.Close()

		start := env.Now()
		f, err := c.Create(context.Background(), "/d/b", 0644)
		if err != nil {
			t.Fatalf("create across manager restart: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		elapsed := env.Now() - start
		// Quiesce (one period) plus the conservative post-restart grace (one
		// period): the op must wait them out, not fail fast.
		if elapsed < lp {
			t.Fatalf("create completed in %v — it cannot have honored the quiesce", elapsed)
		}
		if elapsed > 4*lp {
			t.Fatalf("create took %v, want ≲ %v", elapsed, 4*lp)
		}
		if _, err := c.Stat(context.Background(), "/d/b"); err != nil {
			t.Fatal(err)
		}
	})
}

// A create that reaches a directory while its own client is recovering it
// (the lease lapsed across a lease-manager restart) must land in the table the
// recovery installs. The manager lets a recovering holder extend in place, so
// the create used to be granted at once and run on the pre-recovery table,
// which the recovery then replaced: the create was acknowledged and the file
// was gone (chaos seed 4 lost one across a crash).
func TestCreateDuringOwnRecoveryIsKept(t *testing.T) {
	const lp = 200 * time.Millisecond
	env := sim.NewVirtEnv()
	env.Run(func() {
		ctx := context.Background()
		tr := prt.New(objstore.NewMemStore(), 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{Latency: 20 * time.Microsecond})
		mgr := lease.NewManager(net, lease.Options{Period: lp})
		crash := crashpoint.NewSet()
		c := New(net, tr, Options{
			ID: "c", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp, AcquireRetries: 16, Crash: crash,
			Journal: journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2},
		})
		defer func() { _ = c.Close() }()
		if err := c.Mkdir(ctx, "/d", 0777); err != nil {
			t.Fatal(err)
		}
		dir := statIno(t, c, "/d")
		if _, _, err := c.acquireLease(ctx, dir); err != nil {
			t.Fatal(err)
		}
		mgr.Close()
		env.Sleep(2 * lp)
		mgr2 := lease.NewManager(net, lease.Options{Period: lp, Restarted: true})
		defer mgr2.Close()

		// When c starts recovering /d, a create of c's reaches /d (by inode:
		// a walk would make c recover / first).
		created := sim.NewChan[error](env)
		crash.Arm(crashpoint.RecoveryPreReplay, func() {
			env.Go(func() {
				_, _, err := c.lookup(ctx, dir, []string{"b"}, &ride{create: &CreateReq{Type: types.TypeRegular,
					Mode: 0644, Cred: types.Cred{Uid: 1, Gid: 1}, NewIno: types.NewInoSource(9).Next(), Exclusive: true}})
				created.Send(err)
			})
			env.Sleep(lp / 20)
		})
		if _, _, err := c.acquireLease(ctx, dir); err != nil {
			t.Fatal(err)
		}
		if err, _ := created.Recv(); err != nil {
			t.Fatalf("create during the recovery: %v", err)
		}
		if _, err := c.Stat(ctx, "/d/b"); err != nil {
			t.Fatalf("stat right after the acknowledged create: %v", err)
		}
	})
}

// A client that takes and gives up one directory after another, as an
// archiving walk does, keeps no acquisition state for any of them: the
// serializer of a directory goes with its last user.
func TestAcquiringForgetsReleasedDirs(t *testing.T) {
	const lp = 200 * time.Millisecond
	env := sim.NewVirtEnv()
	env.Run(func() {
		ctx := context.Background()
		tr := prt.New(objstore.NewMemStore(), 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		mgr := lease.NewManager(net, lease.Options{Period: lp})
		defer mgr.Close()
		c := New(net, tr, Options{
			ID: "c", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
			Journal: journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2},
		})
		defer func() { _ = c.Close() }()
		for i := 0; i < 1000; i++ {
			name := fmt.Sprintf("/d%d", i)
			if err := c.Mkdir(ctx, name, 0777); err != nil {
				t.Fatal(err)
			}
			dir := statIno(t, c, name)
			if _, _, err := c.acquireLease(ctx, dir); err != nil {
				t.Fatal(err)
			}
			if err := c.ReleaseDir(dir); err != nil {
				t.Fatal(err)
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if n := len(c.acquiring); n != 0 {
			t.Fatalf("%d directories still have an acquisition serializer after 1,000 were taken and released", n)
		}
	})
}

// TestPcacheForgetsExpiredDirs: a permission-caching client that resolves
// many remote directories once each holds their entries for one lease period,
// not for its lifetime. After 10^4 of them and a lease period, one more
// resolution leaves only its own entry.
func TestPcacheForgetsExpiredDirs(t *testing.T) {
	const lp = 200 * time.Millisecond
	const dirs = 10000
	env := sim.NewVirtEnv()
	env.Run(func() {
		ctx := context.Background()
		tr := prt.New(objstore.NewMemStore(), 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		mgr := lease.NewManager(net, lease.Options{Period: lp})
		defer mgr.Close()
		mount := func(id string, permCache bool) *Client {
			return New(net, tr, Options{
				ID: id, Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp, PermCache: permCache,
				Journal: journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2},
			})
		}
		leader, pc := mount("leader", false), mount("pc", true)
		defer func() { _ = pc.Close() }()
		defer func() { _ = leader.Close() }()
		if _, err := leader.Stat(ctx, "/"); err != nil { // leader leads the root
			t.Fatal(err)
		}
		// The leader answers each walk for the root and the directory below it,
		// so pc caches an entry for every directory it resolves into.
		for i := 0; i < dirs; i++ {
			name := fmt.Sprintf("/d%d", i)
			if err := leader.Mkdir(ctx, name, 0777); err != nil {
				t.Fatal(err)
			}
			if _, _, err := leader.acquireLease(ctx, statIno(t, leader, name)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < dirs; i++ {
			if _, err := pc.Stat(ctx, fmt.Sprintf("/d%d/x", i)); !isNotExist(err) {
				t.Fatalf("stat of a missing name: %v", err)
			}
		}
		pc.mu.Lock()
		held := len(pc.pcache)
		pc.mu.Unlock()
		if held < dirs {
			t.Fatalf("pcache holds %d entries after %d resolutions; the test resolves nothing remote", held, dirs)
		}
		env.Sleep(lp + time.Millisecond)
		if _, err := pc.Stat(ctx, "/x"); !isNotExist(err) { // one entry: the root's
			t.Fatalf("stat of a missing name: %v", err)
		}
		pc.mu.Lock()
		defer pc.mu.Unlock()
		if n := len(pc.pcache); n > 1 {
			t.Fatalf("pcache holds %d entries a lease period after %d directories were resolved", n, dirs)
		}
	})
}

// A leader dies right after a create's journal PUT, and its successor's first
// recovery fails on one store fault: the successor renounces the directory
// uncleanly. When it asks again it must recover again, not load the table
// the acknowledged create never reached.
func TestRecoveryRetriedAfterAFailedRecover(t *testing.T) {
	const lp = 200 * time.Millisecond
	env := sim.NewVirtEnv()
	env.Run(func() {
		ctx := context.Background()
		fault := objstore.NewFaultStore(objstore.NewMemStore())
		tr := prt.New(fault, 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		mgr := lease.NewManager(net, lease.Options{Period: lp})
		defer mgr.Close()
		opts := func(id string, crash *crashpoint.Set) Options {
			return Options{ID: id, Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp, Crash: crash, AcquireRetries: 64,
				Journal: journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2}}
		}
		set := crashpoint.NewSet()
		leader := New(net, tr, opts("leader", set))
		if err := leader.Mkdir(ctx, "/d", 0777); err != nil {
			t.Fatal(err)
		}
		if err := leader.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		node, err := leader.Stat(ctx, "/d")
		if err != nil {
			t.Fatal(err)
		}
		set.Arm(crashpoint.PostJournalPut, leader.Crash)
		if f, err := leader.Create(ctx, "/d/f", 0644); err != nil {
			t.Fatal(err)
		} else if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		_ = leader.Fsync(ctx, "/d/f") // the commit's PUT kills the leader
		if !set.Killed() {
			t.Fatal("the leader did not die at the journal PUT")
		}

		fault.FailNextRead(prt.JournalPrefix(node.Ino), 1) // the successor's first recovery list
		succ := New(net, tr, opts("succ", nil))
		defer func() { _ = succ.Close() }()
		for attempt := 0; ; attempt++ {
			if _, err = succ.Stat(ctx, "/d/f"); err == nil {
				break
			}
			if attempt == 20 {
				t.Fatalf("the acknowledged create is gone after a failed recovery: %v", err)
			}
			env.Sleep(lp / 2)
		}
		if fault.Injected() != 1 {
			t.Fatalf("%d faults injected, want the one recovery list", fault.Injected())
		}
	})
}
