package lease

import (
	"context"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// acquire asks m for dir on client's behalf.
func acquire(m *Manager, dir types.Ino, client rpc.Addr) AcquireResp {
	return m.decide(AcquireReq{Dir: dir, Client: client}).(AcquireResp)
}

func TestAcquireExtendRelease(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		dir := types.RootIno

		resp, err := c1.Acquire(context.Background(), dir)
		if err != nil || !resp.Granted || resp.SameLeader || resp.NeedRecovery {
			t.Fatalf("first acquire: %+v, %v", resp, err)
		}
		id := resp.LeaseID

		// Extension keeps the lease id and reports SameLeader.
		env.Sleep(500 * time.Millisecond)
		ext, err := c1.Acquire(context.Background(), dir)
		if err != nil || !ext.Granted || !ext.SameLeader || ext.LeaseID != id {
			t.Fatalf("extension: %+v, %v", ext, err)
		}
		if resp.Period != time.Second || ext.Period != time.Second {
			t.Fatalf("grant and extension last %v and %v, want the period", resp.Period, ext.Period)
		}

		// Clean release; re-acquire by the same client keeps the metatable.
		if err := c1.Release(context.Background(), dir, id, true); err != nil {
			t.Fatal(err)
		}
		again, err := c1.Acquire(context.Background(), dir)
		if err != nil || !again.Granted || !again.SameLeader {
			t.Fatalf("re-acquire after clean release: %+v, %v", again, err)
		}
		if again.LeaseID == id {
			t.Fatal("new grant chain must change the lease id")
		}
	})
}

func TestFCFSRedirect(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		reg := obs.NewRegistry()
		m := NewManager(net, Options{Period: time.Second, Obs: reg})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		dir := types.RootIno

		if r, _ := c1.Acquire(context.Background(), dir); !r.Granted {
			t.Fatal("c1 grant failed")
		}
		r2, err := c2.Acquire(context.Background(), dir)
		if err != nil || r2.Granted || !r2.Redirect || r2.Leader != "c1" {
			t.Fatalf("c2 should be redirected to c1: %+v, %v", r2, err)
		}
		if n := reg.Counter("lease.redirects").Value(); n != 1 {
			t.Fatalf("redirects = %d", n)
		}
	})
}

func TestLeaseExpiryHandsOver(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		dir := types.RootIno

		r1, _ := c1.Acquire(context.Background(), dir)
		if !r1.Granted {
			t.Fatal("grant failed")
		}
		// c1 releases cleanly; c2 acquires without recovery and without the
		// SameLeader shortcut.
		if err := c1.Release(context.Background(), dir, r1.LeaseID, true); err != nil {
			t.Fatal(err)
		}
		r2, _ := c2.Acquire(context.Background(), dir)
		if !r2.Granted || r2.SameLeader || r2.NeedRecovery {
			t.Fatalf("c2 grant: %+v", r2)
		}
		// After c2 releases cleanly, c1 re-acquiring must NOT see SameLeader
		// (someone else held the directory in between).
		if err := c2.Release(context.Background(), dir, r2.LeaseID, true); err != nil {
			t.Fatal(err)
		}
		r3, _ := c1.Acquire(context.Background(), dir)
		if !r3.Granted || r3.SameLeader {
			t.Fatalf("c1 after interleaved holder: %+v", r3)
		}
	})
}

func TestCrashTriggersRecoveryFlow(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		reg := obs.NewRegistry()
		m := NewManager(net, Options{Period: time.Second, Obs: reg})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		c3 := &Client{Net: net, Mgr: m.Addr(), Self: "c3"}
		dir := types.RootIno

		r1, _ := c1.Acquire(context.Background(), dir)
		if !r1.Granted {
			t.Fatal("grant failed")
		}
		// c1 "crashes": never releases. Within the grace window, acquires
		// must wait.
		env.Sleep(1500 * time.Millisecond) // expired at 1s, grace until 2s
		w, _ := c2.Acquire(context.Background(), dir)
		if !w.Wait {
			t.Fatalf("expected Wait during grace window: %+v", w)
		}
		env.Sleep(w.RetryAfter + time.Millisecond)

		// Past the grace window: the next acquirer is told to recover.
		r2, _ := c2.Acquire(context.Background(), dir)
		if !r2.Granted || !r2.NeedRecovery {
			t.Fatalf("expected recovery grant: %+v", r2)
		}
		// Others wait while recovery is in flight.
		w3, _ := c3.Acquire(context.Background(), dir)
		if !w3.Wait {
			t.Fatalf("expected Wait during recovery: %+v", w3)
		}
		// Recovery completes; the recoverer's lease is renewed.
		done, err := c2.RecoveryDone(context.Background(), dir, r2.LeaseID)
		if err != nil || !done.OK {
			t.Fatalf("RecoveryDone: %+v, %v", done, err)
		}
		// Now c3 is redirected to c2 (the lease is live again).
		r3, _ := c3.Acquire(context.Background(), dir)
		if !r3.Redirect || r3.Leader != "c2" {
			t.Fatalf("post-recovery: %+v", r3)
		}
		if n := reg.Counter("lease.recoveries").Value(); n != 1 {
			t.Fatalf("recoveries = %d", n)
		}
	})
}

func TestManagerRestartQuiesce(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second, Restarted: true})
		defer m.Close()
		c := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		w, err := c.Acquire(context.Background(), types.RootIno)
		if err != nil || !w.Wait || !w.Quiesce {
			t.Fatalf("acquire during quiesce: %+v, %v", w, err)
		}
		env.Sleep(w.RetryAfter + time.Millisecond)
		// The restart lost the chain state, so the manager cannot know whether
		// the directory's last leader crashed mid-journal: the first grant
		// waits out the data-lease grace and then forces a recovery.
		g, err := c.Acquire(context.Background(), types.RootIno)
		if err != nil || !g.Wait || g.Quiesce {
			t.Fatalf("first acquire after quiesce should wait out the grace: %+v, %v", g, err)
		}
		env.Sleep(g.RetryAfter + time.Millisecond)
		r, err := c.Acquire(context.Background(), types.RootIno)
		if err != nil || !r.Granted || !r.NeedRecovery {
			t.Fatalf("post-restart grant must carry NeedRecovery: %+v, %v", r, err)
		}
	})
}

// A manager resumed from its predecessor's snapshot trusts no instant of the
// predecessor's clock, which had another zero: a holder granted 100 periods
// into the old clock's life and dead since is treated as a crashed holder
// whose lease ends one period after the resume, so the next client gets its
// recovery grant two periods in.
func TestResumeCountsFromItsOwnStart(t *testing.T) {
	const period = time.Second
	store := objstore.NewMemStore()
	dir := types.RootIno
	old := sim.NewVirtEnv()
	old.Run(func() {
		m := NewManager(rpc.NewNetwork(old, sim.NetModel{}), Options{Period: period, Store: store})
		defer m.Close()
		old.Sleep(100 * period)
		if r := acquire(m, dir, "dead"); !r.Granted {
			t.Fatalf("grant before the restart: %+v", r)
		}
	})
	env := sim.NewVirtEnv()
	env.Run(func() {
		m := NewManager(rpc.NewNetwork(env, sim.NetModel{}), Options{Period: period, Store: store, Restarted: true})
		defer m.Close()
		for env.Now() <= 2*period {
			r := acquire(m, dir, "next")
			switch {
			case r.Granted:
				if !r.NeedRecovery {
					t.Fatalf("the dead holder's successor must recover: %+v", r)
				}
				return
			case r.Wait:
				env.Sleep(r.RetryAfter)
			default: // redirected to the dead holder
				env.Sleep(period / 10)
			}
		}
		t.Fatalf("no recovery grant within two periods of the resume")
	})
}

func TestReleaseValidatesOwnership(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		dir := types.RootIno
		r1, _ := c1.Acquire(context.Background(), dir)
		// Wrong client and wrong id must both be rejected.
		if err := c2.Release(context.Background(), dir, r1.LeaseID, true); err != nil {
			t.Fatal(err)
		}
		if r, _ := c2.Acquire(context.Background(), dir); !r.Redirect {
			t.Fatalf("foreign release must not free the lease: %+v", r)
		}
		if err := c1.Release(context.Background(), dir, r1.LeaseID+99, true); err != nil {
			t.Fatal(err)
		}
		if r, _ := c2.Acquire(context.Background(), dir); !r.Redirect {
			t.Fatalf("stale-id release must not free the lease: %+v", r)
		}
	})
}

func TestManyDirectoriesIndependent(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		reg := obs.NewRegistry()
		m := NewManager(net, Options{Period: time.Second, Obs: reg})
		defer m.Close()
		src := types.NewInoSource(1)
		g := sim.NewGroup(env)
		for i := 0; i < 64; i++ {
			i := i
			dir := src.Next()
			g.Go(func() {
				c := &Client{Net: net, Mgr: m.Addr(), Self: rpc.Addr("c" + string(rune('a'+i%26)) + string(rune('a'+i/26)))}
				r, err := c.Acquire(context.Background(), dir)
				if err != nil || !r.Granted {
					t.Errorf("client %d: %+v, %v", i, r, err)
					return
				}
				if err := c.Release(context.Background(), dir, r.LeaseID, true); err != nil {
					t.Errorf("client %d release: %v", i, err)
				}
			})
		}
		g.Wait()
		if got := reg.Counter("lease.acquires").Value(); got != 64 {
			t.Fatalf("acquires = %d", got)
		}
	})
}

func TestRecoveryDoneValidation(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		dir := types.RootIno
		r1, _ := c1.Acquire(context.Background(), dir)
		if !r1.Granted {
			t.Fatal("grant failed")
		}
		// RecoveryDone without a recovery in flight is rejected.
		if done, _ := c1.RecoveryDone(context.Background(), dir, r1.LeaseID); done.OK {
			t.Fatal("RecoveryDone accepted outside recovery")
		}
		// Crash + grace, then c2 recovers.
		env.Sleep(2500 * time.Millisecond)
		r2, _ := c2.Acquire(context.Background(), dir)
		if !r2.NeedRecovery {
			t.Fatalf("expected recovery grant: %+v", r2)
		}
		// The wrong client cannot complete someone else's recovery.
		if done, _ := c1.RecoveryDone(context.Background(), dir, r2.LeaseID); done.OK {
			t.Fatal("foreign RecoveryDone accepted")
		}
		// The wrong lease id is rejected too.
		if done, _ := c2.RecoveryDone(context.Background(), dir, r2.LeaseID+1); done.OK {
			t.Fatal("stale-id RecoveryDone accepted")
		}
		if done, _ := c2.RecoveryDone(context.Background(), dir, r2.LeaseID); !done.OK {
			t.Fatal("legitimate RecoveryDone rejected")
		}
	})
}

func TestSameHolderReacquireAfterLapse(t *testing.T) {
	// An idle leader whose lease lapsed re-acquires in place: no crash
	// handling, no metadata reload (SameLeader).
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		dir := types.RootIno
		r1, _ := c1.Acquire(context.Background(), dir)
		if !r1.Granted {
			t.Fatal("grant failed")
		}
		env.Sleep(3 * time.Second) // well past expiry, no release
		r2, _ := c1.Acquire(context.Background(), dir)
		if !r2.Granted || !r2.SameLeader || r2.NeedRecovery {
			t.Fatalf("same-holder reacquire: %+v", r2)
		}
		if r2.LeaseID != r1.LeaseID {
			t.Fatalf("lease chain broken: %d -> %d", r1.LeaseID, r2.LeaseID)
		}
	})
}

func TestUncleanReleaseForcesRecovery(t *testing.T) {
	// A holder that renounces with unflushed state (a failed Close flush, an
	// aborted recovery) may leave journal records behind. The release must
	// not free the directory: the next acquirer has to take the crashed-
	// holder path — grace wait, then a NeedRecovery grant.
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		dir := types.RootIno
		r1, _ := c1.Acquire(context.Background(), dir)
		if !r1.Granted {
			t.Fatal("grant failed")
		}
		if err := c1.Release(context.Background(), dir, r1.LeaseID, false); err != nil {
			t.Fatal(err)
		}
		w, _ := c2.Acquire(context.Background(), dir)
		if w.Granted || !w.Wait {
			t.Fatalf("unclean release must impose the recovery grace: %+v", w)
		}
		env.Sleep(w.RetryAfter + time.Millisecond)
		r2, _ := c2.Acquire(context.Background(), dir)
		if !r2.Granted || !r2.NeedRecovery {
			t.Fatalf("grant after unclean release must carry NeedRecovery: %+v", r2)
		}
		// The recoverer fails and renounces uncleanly in turn; asking again,
		// it takes the same path as anyone: the grace, then a recovery.
		if err := c2.Release(context.Background(), dir, r2.LeaseID, false); err != nil {
			t.Fatal(err)
		}
		w, _ = c2.Acquire(context.Background(), dir)
		if w.Granted || !w.Wait {
			t.Fatalf("the unclean releaser itself must wait out the grace: %+v", w)
		}
		env.Sleep(w.RetryAfter + time.Millisecond)
		r3, _ := c2.Acquire(context.Background(), dir)
		if !r3.Granted || !r3.NeedRecovery || r3.SameLeader || r3.LeaseID == r2.LeaseID {
			t.Fatalf("the unclean releaser's next grant must be a new chain that recovers: %+v", r3)
		}
	})
}

func TestDeadRecovererRegrants(t *testing.T) {
	// A grantee that dies mid-recovery (no RecoveryDone) must not wedge the
	// directory: once its lease and the grace lapse, a fresh NeedRecovery
	// chain starts. Journal replay is idempotent, so the half-finished
	// predecessor is harmless.
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		m := NewManager(net, Options{Period: time.Second})
		defer m.Close()
		c1 := &Client{Net: net, Mgr: m.Addr(), Self: "c1"}
		c2 := &Client{Net: net, Mgr: m.Addr(), Self: "c2"}
		c3 := &Client{Net: net, Mgr: m.Addr(), Self: "c3"}
		dir := types.RootIno

		r1, _ := c1.Acquire(context.Background(), dir)
		if !r1.Granted {
			t.Fatal("grant failed")
		}
		env.Sleep(3 * time.Second) // c1 crashes silently; lease + grace lapse
		r2, _ := c2.Acquire(context.Background(), dir)
		if !r2.Granted || !r2.NeedRecovery {
			t.Fatalf("expected recovery grant: %+v", r2)
		}
		// c2 dies mid-recovery. While its lease (plus grace) is live, others
		// wait; afterwards a fresh recovery chain starts.
		w, _ := c3.Acquire(context.Background(), dir)
		if w.Granted || !w.Wait {
			t.Fatalf("recovery in flight, want wait: %+v", w)
		}
		env.Sleep(3 * time.Second)
		r3, _ := c3.Acquire(context.Background(), dir)
		if !r3.Granted || !r3.NeedRecovery {
			t.Fatalf("dead recoverer must yield a fresh recovery grant: %+v", r3)
		}
		if r3.LeaseID == r2.LeaseID {
			t.Fatal("fresh recovery chain must change the lease id")
		}
		if done, _ := c3.RecoveryDone(context.Background(), dir, r3.LeaseID); !done.OK {
			t.Fatal("new recoverer's RecoveryDone rejected")
		}
	})
}
