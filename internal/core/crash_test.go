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
