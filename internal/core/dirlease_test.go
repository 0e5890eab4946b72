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

// The directory lease's three questions at and around their boundaries: a
// grant of 4 s requested at 10 s ends at 14 s, serves until 13 s (a quarter
// of the period kept in hand) and falls due for extension past 12 s (half
// left). The grant's own period sets both, whatever was granted before.
func TestDirLeaseBoundaries(t *testing.T) {
	const s = time.Second
	var l dirLease
	l.grant(10*s, 4*s, 7)
	if l.id != 7 || l.until != 14*s || l.period != 4*s {
		t.Fatalf("grant(10s, 4s, 7) = %+v", l)
	}
	for _, tc := range []struct {
		now               time.Duration
		serves, live, due bool
	}{
		{10 * s, true, true, false},
		{12 * s, true, true, false},
		{12*s + 1, true, true, true},
		{13*s - 1, true, true, true},
		{13 * s, false, true, true},
		{14*s - 1, false, true, true},
		{14 * s, false, false, true},
		{20 * s, false, false, true},
	} {
		if got := l.serves(tc.now); got != tc.serves {
			t.Errorf("serves(%v) = %v, want %v", tc.now, got, tc.serves)
		}
		if got := l.live(tc.now); got != tc.live {
			t.Errorf("live(%v) = %v, want %v", tc.now, got, tc.live)
		}
		if got := l.due(tc.now); got != tc.due {
			t.Errorf("due(%v) = %v, want %v", tc.now, got, tc.due)
		}
	}
	// A shorter re-grant replaces the period, and with it both margins.
	l.grant(20*s, 400*time.Millisecond, 8)
	if !l.serves(20*s+299*time.Millisecond) || l.serves(20*s+300*time.Millisecond) {
		t.Errorf("a 400ms grant at 20s must serve until 20.3s: %+v", l)
	}
	if l.due(20*s+200*time.Millisecond) || !l.due(20*s+201*time.Millisecond) {
		t.Errorf("a 400ms grant at 20s falls due past 20.2s: %+v", l)
	}
}

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
