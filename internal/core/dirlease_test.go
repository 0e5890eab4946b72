package core

import (
	"testing"
	"time"

	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
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
