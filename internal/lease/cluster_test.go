package lease

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// movedDir finds a directory that base routes to a member of base but nr
// routes to want (any moved dir when want is "").
func movedDir(t *testing.T, base, nr Ring, want rpc.Addr) types.Ino {
	t.Helper()
	for i := 0; i < 65536; i++ {
		ino := inoFor(i)
		if base.RouteAddr(ino) != nr.RouteAddr(ino) && (want == "" || nr.RouteAddr(ino) == want) {
			return ino
		}
	}
	t.Fatal("no moved directory found")
	return types.Ino{}
}

func newTestCluster(t *testing.T, env sim.Env, shards int, store objstore.Store) (*rpc.Network, *Cluster) {
	t.Helper()
	net := rpc.NewNetwork(env, sim.NetModel{})
	c := NewCluster(net, ClusterOptions{
		Shards:  shards,
		Store:   store,
		Manager: Options{Period: time.Second, Obs: obs.NewRegistry()},
	})
	return net, c
}

// A sharded cluster routes each directory to exactly one shard, FCFS holds
// across shards, and clients follow the ring without configuration.
func TestClusterRoutesAndGrants(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net, cl := newTestCluster(t, env, 3, nil)
		defer cl.Close()
		c1 := &Client{Net: net, Self: "c1", Router: cl.Router()}
		c2 := &Client{Net: net, Self: "c2", Router: cl.Router()}
		for i := 0; i < 32; i++ {
			dir := inoFor(i)
			r, err := c1.Acquire(context.Background(), dir)
			if err != nil || !r.Granted {
				t.Fatalf("dir %d: %+v, %v", i, r, err)
			}
			r2, err := c2.Acquire(context.Background(), dir)
			if err != nil || r2.Granted || !r2.Redirect || r2.Leader != "c1" {
				t.Fatalf("dir %d FCFS violated: %+v, %v", i, r2, err)
			}
		}
		// Every shard holds some of the chains.
		for addr, m := range cl.mgrs {
			if len(m.rule.dirs) == 0 {
				t.Fatalf("shard %s idle; routing is degenerate", addr)
			}
		}
	})
}

// AddShard hands live grants over: a directory that moves to the new shard
// keeps its holder, its fencing token, and its FCFS exclusion — with no
// grace-period stall — and a client still holding the old ring is redirected
// (typed StaleRing, never a wrong-shard grant) until it converges.
func TestAddShardHandoffKeepsGrants(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net, cl := newTestCluster(t, env, 2, nil)
		defer cl.Close()
		holder := &Client{Net: net, Self: "holder", Router: cl.Router()}
		rival := &Client{Net: net, Self: "rival", Router: cl.Router()}

		base := cl.Ring()
		grants := map[int]AcquireResp{}
		for i := 0; i < 64; i++ {
			r, err := holder.Acquire(context.Background(), inoFor(i))
			if err != nil || !r.Granted {
				t.Fatalf("seed grant %d: %+v, %v", i, r, err)
			}
			grants[i] = r
		}

		addr, err := cl.AddShard()
		if err != nil {
			t.Fatal(err)
		}
		nr := cl.Ring()
		if nr.Epoch != base.Epoch+1 || !nr.Contains(addr) {
			t.Fatalf("ring after AddShard: %v", nr)
		}

		moved := 0
		for i := 0; i < 64; i++ {
			dir := inoFor(i)
			if nr.RouteAddr(dir) == addr {
				moved++
			}
			// The holder extends through the redirect chain: same lease id,
			// SameLeader, no Wait (a Wait here would be the grace stall the
			// handoff exists to avoid).
			r, err := holder.Acquire(context.Background(), dir)
			if err != nil || !r.Granted || !r.SameLeader || r.LeaseID != grants[i].LeaseID {
				t.Fatalf("dir %d lost its chain across handoff: %+v (was %+v), %v", i, r, grants[i], err)
			}
			// FCFS still excludes the rival at the new owner.
			r2, err := rival.Acquire(context.Background(), dir)
			if err != nil || r2.Granted || !r2.Redirect || r2.Leader != "holder" {
				t.Fatalf("dir %d FCFS violated after handoff: %+v, %v", i, r2, err)
			}
		}
		if moved == 0 {
			t.Fatal("no directory moved to the new shard; test is vacuous")
		}
		if hr := cl.cMoved.Value(); hr == 0 {
			t.Fatalf("handoff moved counter is zero (moved %d dirs)", moved)
		}
		if lost := cl.cLost.Value(); lost != 0 {
			t.Fatalf("handoff lost %d grants on a healthy network", lost)
		}
		// Both client routers converged onto the new ring via redirects.
		if e := holder.Router.(*RingRouter).Ring().Epoch; e != nr.Epoch {
			t.Fatalf("holder router stuck at epoch %d", e)
		}
	})
}

// RemoveShard migrates the victim's grants to the survivors and leaves a
// tombstone that teaches stale clients the final ring.
func TestRemoveShardTombstoneConverges(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net, cl := newTestCluster(t, env, 3, nil)
		defer cl.Close()
		holder := &Client{Net: net, Self: "holder", Router: cl.Router()}
		base := cl.Ring()
		victim := base.Members[0]

		// Seed grants, some of which live on the victim.
		grants := map[int]AcquireResp{}
		onVictim := 0
		for i := 0; i < 64; i++ {
			if base.RouteAddr(inoFor(i)) == victim {
				onVictim++
			}
			r, err := holder.Acquire(context.Background(), inoFor(i))
			if err != nil || !r.Granted {
				t.Fatalf("seed grant %d: %+v, %v", i, r, err)
			}
			grants[i] = r
		}
		if onVictim == 0 {
			t.Fatal("victim owned nothing; test is vacuous")
		}

		if err := cl.RemoveShard(victim); err != nil {
			t.Fatal(err)
		}
		if cl.Ring().Contains(victim) {
			t.Fatal("victim still in the ring")
		}

		// A client that never heard about the removal still routes to the
		// victim; the tombstone redirects it and it converges in one hop.
		stale := &Client{Net: net, Self: "holder", Router: NewRouter(base)}
		for i := 0; i < 64; i++ {
			r, err := stale.Acquire(context.Background(), inoFor(i))
			if err != nil || !r.Granted || !r.SameLeader || r.LeaseID != grants[i].LeaseID {
				t.Fatalf("dir %d via stale ring: %+v (was %+v), %v", i, r, grants[i], err)
			}
		}
		if e := stale.Router.(*RingRouter).Ring().Epoch; e != cl.Ring().Epoch {
			t.Fatalf("stale router did not converge: epoch %d", e)
		}
	})
}

// Handoff under concurrency: clients keep acquiring and extending while the
// membership changes underneath them. Run with -race; the invariant checked
// is that no directory ever reports two simultaneous leaders.
func TestClusterReshardUnderTraffic(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net, cl := newTestCluster(t, env, 2, nil)
		defer cl.Close()

		const clients, dirs = 8, 24
		var mu sync.Mutex
		leaders := map[int]rpc.Addr{} // dir -> granted holder (exclusive)
		wg := sim.NewGroup(env)
		for ci := 0; ci < clients; ci++ {
			self := rpc.Addr(fmt.Sprintf("c%d", ci))
			c := &Client{Net: net, Self: self, Router: cl.Router()}
			wg.Go(func() {
				for round := 0; round < 30; round++ {
					dir := (round + int(self[1])) % dirs
					r, err := c.Acquire(context.Background(), inoFor(dir))
					if err != nil {
						continue // redirect loop during a reshard: retryable
					}
					if r.Granted {
						mu.Lock()
						if cur, held := leaders[dir]; held && cur != self {
							mu.Unlock()
							t.Errorf("dir %d granted to %s while %s holds it", dir, self, cur)
							return
						}
						leaders[dir] = self
						mu.Unlock()
						env.Sleep(time.Millisecond)
						mu.Lock()
						delete(leaders, dir)
						mu.Unlock()
						_ = c.Release(context.Background(), inoFor(dir), r.LeaseID, true)
					} else {
						env.Sleep(time.Millisecond)
					}
				}
			})
		}
		// Membership churn in the middle of the traffic.
		addr, err := cl.AddShard()
		if err != nil {
			t.Fatal(err)
		}
		env.Sleep(5 * time.Millisecond)
		if _, err := cl.AddShard(); err != nil {
			t.Fatal(err)
		}
		env.Sleep(5 * time.Millisecond)
		if err := cl.RemoveShard(addr); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	})
}

// Shard failover with a persisted grant table: a killed and replaced shard
// resumes its grants — the holder keeps its lease id, a rival is still
// redirected — instead of stalling every directory behind the full
// restart-amnesia grace.
func TestShardFailoverResumesFromSnapshot(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		store := objstore.NewMemStore()
		net, cl := newTestCluster(t, env, 2, store)
		defer cl.Close()
		holder := &Client{Net: net, Self: "holder", Router: cl.Router()}
		ring := cl.Ring()
		victim := ring.Members[0]

		grants := map[int]AcquireResp{}
		for i := 0; i < 48; i++ {
			r, err := holder.Acquire(context.Background(), inoFor(i))
			if err != nil || !r.Granted {
				t.Fatalf("seed grant %d: %+v, %v", i, r, err)
			}
			grants[i] = r
		}

		if err := cl.KillShard(victim); err != nil {
			t.Fatal(err)
		}
		env.Sleep(100 * time.Millisecond)
		if err := cl.RestartShard(victim); err != nil {
			t.Fatal(err)
		}

		rival := &Client{Net: net, Self: "rival", Router: cl.Router()}
		for i := 0; i < 48; i++ {
			dir := inoFor(i)
			if ring.RouteAddr(dir) != victim {
				continue
			}
			// The restarted shard serves from its snapshot: extension keeps
			// the chain, no quiesce wait, rival stays excluded.
			r, err := holder.Acquire(context.Background(), dir)
			if err != nil || !r.Granted || !r.SameLeader || r.LeaseID != grants[i].LeaseID {
				t.Fatalf("dir %d not resumed: %+v (was %+v), %v", i, r, grants[i], err)
			}
			r2, err := rival.Acquire(context.Background(), dir)
			if err != nil || r2.Granted || !r2.Redirect {
				t.Fatalf("dir %d rival after failover: %+v, %v", i, r2, err)
			}
		}
		if cl.mgrs[victim] == nil {
			t.Fatal("victim gone after restart")
		}
	})
}

// Without persistence the same failover must pay the conservative price:
// the restarted shard quiesces and the first grant on an unknown directory
// carries NeedRecovery. This is the PR 2 contract the snapshot path is
// allowed to skip only because it actually knows the grants.
func TestShardFailoverWithoutSnapshotStaysConservative(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net, cl := newTestCluster(t, env, 2, nil)
		defer cl.Close()
		holder := &Client{Net: net, Self: "holder", Router: cl.Router()}
		ring := cl.Ring()
		victim := ring.Members[0]
		dir := movedDirOn(t, ring, victim)

		if r, err := holder.Acquire(context.Background(), dir); err != nil || !r.Granted {
			t.Fatalf("seed: %+v, %v", r, err)
		}
		if err := cl.KillShard(victim); err != nil {
			t.Fatal(err)
		}
		if err := cl.RestartShard(victim); err != nil {
			t.Fatal(err)
		}
		// First answer during the quiesce window is a Wait, not a grant.
		m := cl.mgrs[victim]
		resp := acquire(m, dir, "holder", uint64(ring.Epoch))
		if !resp.Wait || !resp.Quiesce {
			t.Fatalf("amnesiac restart must quiesce: %+v", resp)
		}
		env.Sleep(time.Second + time.Millisecond) // quiesce + unknown-holder lapse
		env.Sleep(time.Second)                    // crashed-holder grace
		resp = acquire(m, dir, "holder", uint64(ring.Epoch))
		if !resp.Granted || !resp.NeedRecovery {
			t.Fatalf("post-grace grant must carry NeedRecovery: %+v", resp)
		}
	})
}

// movedDirOn finds a directory that ring routes to addr.
func movedDirOn(t *testing.T, ring Ring, addr rpc.Addr) types.Ino {
	t.Helper()
	for i := 0; i < 65536; i++ {
		if ring.RouteAddr(inoFor(i)) == addr {
			return inoFor(i)
		}
	}
	t.Fatal("no directory routes to shard")
	return types.Ino{}
}

// A corrupt snapshot must degrade to cold-restart semantics, never to a
// half-applied grant table.
func TestCorruptSnapshotDegradesToColdRestart(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		store := objstore.NewMemStore()
		net, cl := newTestCluster(t, env, 2, store)
		defer cl.Close()
		holder := &Client{Net: net, Self: "holder", Router: cl.Router()}
		ring := cl.Ring()
		victim := ring.Members[0]
		dir := movedDirOn(t, ring, victim)
		if r, err := holder.Acquire(context.Background(), dir); err != nil || !r.Granted {
			t.Fatalf("seed: %+v, %v", r, err)
		}

		raw, err := store.Get(SnapshotKey(victim))
		if err != nil {
			t.Fatalf("snapshot not persisted: %v", err)
		}
		raw = append([]byte(nil), raw...)
		raw[len(raw)/3] ^= 0x10
		if err := store.Put(SnapshotKey(victim), raw); err != nil {
			t.Fatal(err)
		}

		if err := cl.KillShard(victim); err != nil {
			t.Fatal(err)
		}
		if err := cl.RestartShard(victim); err != nil {
			t.Fatal(err)
		}
		m := cl.mgrs[victim]
		resp := acquire(m, dir, "holder", uint64(ring.Epoch))
		if !resp.Wait || !resp.Quiesce {
			t.Fatalf("corrupt snapshot must fall back to quiesce: %+v", resp)
		}
	})
}

// The stale-epoch redirect at the rpc layer: the epoch rides the envelope —
// the caller's context's Meta.Epoch, and the handler's —
// and a shard answers a request about territory it no longer owns with
// StaleRing carrying its ring, never a grant.
func TestStaleEpochRedirectAtRPCLayer(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net := rpc.NewNetwork(env, sim.NetModel{})
		r1 := NewRing("lm-a", "lm-b")
		ma := NewManager(net, Options{Addr: "lm-a", Period: time.Second, Ring: r1})
		defer ma.Close()
		mb := NewManager(net, Options{Addr: "lm-b", Period: time.Second, Ring: r1})
		defer mb.Close()

		dirA := movedDirOn(t, r1, "lm-a")

		// Correct-epoch request to the owner: granted.
		ctx := rpc.WithMeta(context.Background(), rpc.Meta{Epoch: uint64(r1.Epoch)})
		resp, err := net.CallFromCtx(ctx, "c1", "lm-a", AcquireReq{Dir: dirA, Client: "c1"})
		if err != nil || !resp.(AcquireResp).Granted {
			t.Fatalf("owner acquire: %+v, %v", resp, err)
		}

		// Same request to the wrong shard: typed StaleRing with the ring
		// attached, not a grant and not an error.
		resp, err = net.CallFromCtx(ctx, "c2", "lm-b", AcquireReq{Dir: dirA, Client: "c2"})
		if err != nil {
			t.Fatal(err)
		}
		ar := resp.(AcquireResp)
		if ar.Granted || !ar.StaleRing || ar.Ring.Epoch != r1.Epoch {
			t.Fatalf("wrong-shard acquire must redirect: %+v", ar)
		}

		// A client claiming a FUTURE epoch gets a Wait (the shard knows it
		// is behind), never a grant under a ring known to be stale.
		future := rpc.WithMeta(context.Background(), rpc.Meta{Epoch: uint64(r1.Epoch) + 5})
		resp, err = net.CallFromCtx(future, "c3", "lm-a", AcquireReq{Dir: dirA, Client: "c3"})
		if err != nil {
			t.Fatal(err)
		}
		if ar := resp.(AcquireResp); ar.Granted || ar.StaleRing || !ar.Wait {
			t.Fatalf("future-epoch request must wait: %+v", ar)
		}

		// No epoch in the context at all (legacy caller): the zero epoch is
		// "no ring known", which still must not produce a wrong-shard grant.
		resp, err = net.CallFromCtx(context.Background(), "c4", "lm-b", AcquireReq{Dir: dirA, Client: "c4"})
		if err != nil {
			t.Fatal(err)
		}
		if ar := resp.(AcquireResp); ar.Granted || !ar.StaleRing {
			t.Fatalf("epochless wrong-shard acquire must redirect: %+v", ar)
		}
	})
}
