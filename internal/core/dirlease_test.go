package core

import (
	"errors"
	"testing"
	"time"

	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// A client's leaseKeeper wakes at a third of the shortest period it holds,
// not of its own LeasePeriod option: granted 1 s by a manager while its
// option says 5 s, the client keeps the lease through 3 s of idleness.
func TestLeaseKeeperWakesForGrantedPeriod(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		tr := prt.New(objstore.NewMemStore(), 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		lease.NewManager(net, lease.Options{Period: time.Second})
		c := New(net, tr, Options{ID: "keeper", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: 5 * time.Second,
			Journal: journal.Config{CommitInterval: 100 * time.Millisecond, CommitWorkers: 1, CheckpointWorkers: 1}})
		defer c.Close()
		if err := c.Mkdir(bgCtx, "/d", 0777); err != nil {
			t.Fatal(err)
		}
		if !c.Leads(types.RootIno) {
			t.Fatal("the mkdir did not take the root's lease")
		}
		for end := env.Now() + 3*time.Second; env.Now() < end; env.Sleep(50 * time.Millisecond) {
			if _, lapsed := installed(c, types.RootIno); lapsed {
				t.Fatalf("the root's lease lapsed at %v", env.Now())
			}
		}
	})
}

// A shard answers a request about a directory its ring routes to another
// shard with the zero answer. A client configured with the ring {A} while the
// shards run {A, B} asks A for a directory of B's: its acquire fails with
// EBUSY on that first answer instead of asking again, and A grants nothing
// (every grant is persisted before it is answered, and A wrote no snapshot).
func TestMisroutedLeaseRequestIsDenied(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		tr := prt.New(objstore.NewMemStore(), 4096)
		if err := Format(tr); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{})
		ring := lease.NewRing("lm-a", "lm-b")
		snaps := objstore.NewMemStore()
		reg := obs.NewRegistry()
		for _, a := range ring.Members {
			m := lease.NewManager(net, lease.Options{Addr: a, Period: time.Second, Ring: ring, Store: snaps, Obs: reg})
			defer m.Close()
		}
		c := New(net, tr, Options{ID: "misrouted", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: time.Second,
			LeaseRing: lease.NewRing("lm-a"),
			Journal:   journal.Config{CommitInterval: 100 * time.Millisecond, CommitWorkers: 1, CheckpointWorkers: 1}})
		defer c.Close()
		src := types.NewInoSource(1)
		dir := src.Next()
		for ring.RouteAddr(dir) != "lm-b" {
			dir = src.Next()
		}
		if _, _, err := c.acquireLease(bgCtx, dir); !errors.Is(err, types.ErrBusy) {
			t.Fatalf("misrouted acquire: %v, want EBUSY", err)
		}
		if n := reg.Counter("lease.acquires").Value(); n != 1 {
			t.Fatalf("the shards answered %d acquires, want the one denial", n)
		}
		if _, err := snaps.Get(lease.SnapshotKey("lm-a")); !errors.Is(err, types.ErrNotExist) {
			t.Fatalf("A persisted a grant table (%v): it granted a directory of B's", err)
		}
	})
}
