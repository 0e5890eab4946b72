package lease

import (
	"context"
	"encoding/binary"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

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

// A sharded cluster routes each directory to exactly one shard, and FCFS
// holds across shards for clients that route by the cluster's ring.
func TestClusterRoutesAndGrants(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		net, cl := newTestCluster(t, env, 3, nil)
		defer cl.Close()
		c1 := &Client{Net: net, Self: "c1", Ring: cl.Ring()}
		c2 := &Client{Net: net, Self: "c2", Ring: cl.Ring()}
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
		holder := &Client{Net: net, Self: "holder", Ring: cl.Ring()}
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

		rival := &Client{Net: net, Self: "rival", Ring: cl.Ring()}
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
		holder := &Client{Net: net, Self: "holder", Ring: cl.Ring()}
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
		resp := acquire(m, dir, "holder")
		if !resp.Wait || !resp.Quiesce {
			t.Fatalf("amnesiac restart must quiesce: %+v", resp)
		}
		env.Sleep(time.Second + time.Millisecond) // quiesce + unknown-holder lapse
		env.Sleep(time.Second)                    // crashed-holder grace
		resp = acquire(m, dir, "holder")
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

// A snapshot the restarted shard cannot trust — a flipped byte, or a frame of
// the older version-2 layout, which carried a suspect list — must degrade to
// cold-restart semantics, never to a half-applied grant table.
func TestCorruptSnapshotDegradesToColdRestart(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, frame []byte) []byte
	}{
		{"flipped", func(t *testing.T, frame []byte) []byte {
			frame = append([]byte(nil), frame...)
			frame[len(frame)/3] ^= 0x10
			return frame
		}},
		{"v2", func(t *testing.T, frame []byte) []byte {
			// The same table in the version-2 layout: an empty suspect list
			// after nextID.
			body, err := wire.Unseal(frame)
			if err != nil {
				t.Fatal(err)
			}
			_, n := binary.Uvarint(body[1:])
			v2 := append([]byte{2}, body[1:1+n]...)
			v2 = append(v2, 0)
			return wire.Seal(append(v2, body[1+n:]...))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewVirtEnv()
			env.Run(func() {
				store := objstore.NewMemStore()
				net, cl := newTestCluster(t, env, 2, store)
				defer cl.Close()
				holder := &Client{Net: net, Self: "holder", Ring: cl.Ring()}
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
				if err := store.Put(SnapshotKey(victim), tc.spoil(t, raw)); err != nil {
					t.Fatal(err)
				}

				if err := cl.KillShard(victim); err != nil {
					t.Fatal(err)
				}
				if err := cl.RestartShard(victim); err != nil {
					t.Fatal(err)
				}
				m := cl.mgrs[victim]
				resp := acquire(m, dir, "holder")
				if !resp.Wait || !resp.Quiesce {
					t.Fatalf("an untrusted snapshot must fall back to quiesce: %+v", resp)
				}
			})
		})
	}
}
