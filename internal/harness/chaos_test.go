package harness

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"arkfs/internal/core"
	"arkfs/internal/crashpoint"
	"arkfs/internal/fsck"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// chaosSeeds returns the seed matrix: CHAOS_SEEDS (comma-separated) when set
// (the CI chaos job sweeps it), else a small default.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	raw := os.Getenv("CHAOS_SEEDS")
	if raw == "" {
		return []int64{1, 7, 42}
	}
	var seeds []int64
	for _, part := range strings.Split(raw, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS: %v", err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestChaosMetadataSeeds: randomized metadata-only chaos across the seed
// matrix. Every acknowledged-durable op must survive, and fsck must find no
// corruption (kills legitimately leak unreachable objects; that residue is
// tolerated, dangling dentries and structural damage are not).
func TestChaosMetadataSeeds(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		rep := RunChaos(ChaosConfig{Seed: seed})
		if rep.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, rep.Summary())
		}
		if rep.DurableChecked == 0 {
			t.Errorf("seed %d: no durable ops verified — workload too weak:\n%s", seed, rep.Summary())
		}
	}
}

// TestChaosDataWrites: chaos with file contents in play. Durable files must
// read back byte-exact — including files that moved in a cross-directory
// rename, which carry their source path's payload.
func TestChaosDataWrites(t *testing.T) {
	rep := RunChaos(ChaosConfig{Seed: 11, DataWrites: true})
	if rep.Failed() {
		t.Fatalf("data chaos failed:\n%s", rep.Summary())
	}
	if rep.DurableChecked == 0 {
		t.Fatalf("no durable ops verified:\n%s", rep.Summary())
	}
}

// TestChaosSameSeedSameFingerprint: replaying a seed reproduces the identical
// event sequence — the property that makes chaos failures debuggable.
func TestChaosSameSeedSameFingerprint(t *testing.T) {
	cfg := ChaosConfig{Seed: 1234}
	a := RunChaos(cfg)
	b := RunChaos(cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed diverged:\nrun A:\n%s\nrun B:\n%s", a.Fingerprint(), b.Fingerprint())
	}
	if a.Failed() || b.Failed() {
		t.Fatalf("replayed runs failed:\nA: %v\nB: %v", a.Errors, b.Errors)
	}
}

// TestChaosResharding: elastic-cluster chaos. The lease ring starts with
// multiple shards and the script grows it mid-workload (AddShard → grant-table
// handoff to the new member), shrinks it again (RemoveShard → tombstone), and
// kills/restarts a shard that resumes from its persisted grant table. The
// acknowledged-durable contract must hold across all of it, live grants must
// actually move (HandoffMoved > 0 — moved directories skip the crash-grace
// stall), no grant state may be abandoned to the grace path (HandoffLost == 0),
// and a same-seed replay must reproduce the identical fingerprint.
func TestChaosResharding(t *testing.T) {
	cfg := ChaosConfig{Seed: 7, LeaseShards: 3, DataWrites: true}
	a := RunChaos(cfg)
	if a.Failed() {
		t.Fatalf("resharding chaos failed:\n%s", a.Summary())
	}
	if a.DurableChecked == 0 {
		t.Fatalf("no durable ops verified:\n%s", a.Summary())
	}
	if a.HandoffMoved == 0 {
		t.Fatalf("reshard moved no live grants — scenario too weak:\n%s", a.Summary())
	}
	if a.HandoffLost != 0 {
		t.Fatalf("%d grant batch(es) abandoned to the grace path:\n%s", a.HandoffLost, a.Summary())
	}
	b := RunChaos(cfg)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed diverged:\nrun A:\n%s\nrun B:\n%s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestChaosDirectedLeaderCrashDuringPartition is the issue's acceptance
// scenario, scripted exactly: a directory leader is killed at
// post-journal-put — its last transaction durable but not checkpointed —
// while the whole network is partitioned from the lease manager. After the
// heal, a successor must recover the directory, the acknowledged transaction
// must be visible, and fsck must be clean.
func TestChaosDirectedLeaderCrashDuringPartition(t *testing.T) {
	const lp = 200 * time.Millisecond
	env := sim.NewVirtEnv()
	env.Run(func() {
		cluster := objstore.NewCluster(env, objstore.TestProfile())
		defer cluster.Close()
		if err := core.Format(prt.New(cluster, 4096)); err != nil {
			t.Fatal(err)
		}
		net := rpc.NewNetwork(env, sim.NetModel{Latency: 20 * time.Microsecond, Bandwidth: 1 << 30})
		plan := rpc.NewFaultPlan(env, 1)
		plan.SetTimeout(lp / 16)
		net.SetFaultPlan(plan)
		mgr := lease.NewManager(net, lease.Options{Period: lp, Workers: 8})
		defer mgr.Close()

		jcfg := journal.Config{CommitInterval: lp / 4, CommitWorkers: 2, CheckpointWorkers: 2}
		set := crashpoint.NewSet()
		leader := core.New(net, prt.New(cluster, 4096), core.Options{
			ID: "leader", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
			Journal: jcfg, Crash: set, AcquireRetries: 64,
		})
		if err := leader.Mkdir(context.Background(), "/work", 0777); err != nil {
			t.Fatal(err)
		}
		if f, err := leader.Create(context.Background(), "/work/pre", 0644); err != nil {
			t.Fatal(err)
		} else if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// Make the setup durable everywhere (the mkdir lives in the *root*
		// journal) before any fault is injected.
		if err := leader.FlushAll(context.Background()); err != nil {
			t.Fatal(err)
		}

		// Cut everyone off from the lease manager, then kill the leader the
		// moment its next journal record is durable (before its checkpoint).
		part := plan.Partition(nil, []rpc.Addr{mgr.Addr()})
		set.Arm(crashpoint.PostJournalPut, leader.Crash)
		if f, err := leader.Create(context.Background(), "/work/x", 0644); err != nil {
			t.Fatal(err)
		} else if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		err := leader.Fsync(context.Background(), "/work/x") // forces the commit; the PUT fires the kill
		fired := set.Fired()
		if len(fired) != 1 || fired[0] != crashpoint.PostJournalPut {
			t.Fatalf("crash site did not fire as scripted: %v (fsync err %v)", fired, err)
		}
		if !set.Killed() {
			t.Fatal("leader not killed")
		}

		// Heal only after the dead leader's lease has lapsed.
		env.Sleep(2 * lp)
		part.Heal()
		env.Sleep(2 * lp) // recovery grace: expiry + one period

		successor := core.New(net, prt.New(cluster, 4096), core.Options{
			ID: "successor", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
			Journal: jcfg, AcquireRetries: 64,
		})
		var entries int
		for attempt := 0; attempt < 20; attempt++ {
			des, err := successor.Readdir(context.Background(), "/work")
			if err == nil {
				entries = len(des)
				break
			}
			env.Sleep(lp / 2)
		}
		if entries != 2 {
			t.Fatalf("successor sees %d entries in /work, want 2 (pre + x)", entries)
		}
		// Zero lost acknowledged ops: the durable record was replayed.
		if _, err := successor.Stat(context.Background(), "/work/x"); err != nil {
			t.Fatalf("acknowledged /work/x lost after recovery: %v", err)
		}
		if _, err := successor.Stat(context.Background(), "/work/pre"); err != nil {
			t.Fatalf("/work/pre lost: %v", err)
		}
		if err := successor.Close(); err != nil {
			t.Fatalf("successor close: %v", err)
		}

		rep, err := fsck.Check(cluster)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Clean() {
			t.Fatalf("fsck not clean after recovery: %v", rep.Problems)
		}
	})
}

// TestChaosDirectedAsyncCommitCrash scripts the async commit pipeline's
// acknowledged-durable contract: a leader acknowledges a burst of creates
// spread over several commit ticks (multiple records in flight at once),
// fsyncs them, then dies the instant a later record lands — before any of
// its checkpoints. The successor's replay must surface every fsync'd file,
// and the run must be deterministic under the virtual clock: two identical
// runs fire the same crash site and recover the same directory listing.
func TestChaosDirectedAsyncCommitCrash(t *testing.T) {
	const lp = 200 * time.Millisecond
	run := func() (names []string, fired []crashpoint.Site) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			cluster := objstore.NewCluster(env, objstore.TestProfile())
			defer cluster.Close()
			if err := core.Format(prt.New(cluster, 4096)); err != nil {
				t.Fatal(err)
			}
			net := rpc.NewNetwork(env, sim.NetModel{Latency: 20 * time.Microsecond, Bandwidth: 1 << 30})
			mgr := lease.NewManager(net, lease.Options{Period: lp, Workers: 8})
			defer mgr.Close()

			// A short interval and a deep window keep several journal PUTs of
			// the same directory in flight at once.
			jcfg := journal.Config{CommitInterval: lp / 16, CommitWorkers: 8,
				CheckpointWorkers: 4, PipelineDepth: 8}
			set := crashpoint.NewSet()
			leader := core.New(net, prt.New(cluster, 4096), core.Options{
				ID: "leader", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
				Journal: jcfg, Crash: set, AcquireRetries: 64,
			})
			if err := leader.Mkdir(context.Background(), "/work", 0777); err != nil {
				t.Fatal(err)
			}
			if err := leader.FlushAll(context.Background()); err != nil {
				t.Fatal(err)
			}

			// Acknowledge a burst across commit ticks, then fsync: every one
			// of these is now promised to survive any crash.
			for i := 0; i < 8; i++ {
				f, err := leader.Create(context.Background(), fmt.Sprintf("/work/b%d", i), 0644)
				if err != nil {
					t.Fatal(err)
				}
				_ = f.Close()
				env.Sleep(lp / 8) // let the group-commit tick seal this record
			}
			if err := leader.Fsync(context.Background(), "/work/b0"); err != nil {
				t.Fatal(err)
			}

			// One more acknowledged create; the leader dies the moment its
			// record is durable, checkpoints still pending.
			f, err := leader.Create(context.Background(), "/work/tail", 0644)
			if err != nil {
				t.Fatal(err)
			}
			_ = f.Close()
			set.Arm(crashpoint.PostJournalPut, leader.Crash)
			_ = leader.Fsync(context.Background(), "/work/tail")
			fired = set.Fired()
			if !set.Killed() {
				t.Fatal("leader not killed")
			}

			env.Sleep(4 * lp) // lease lapse + recovery grace

			successor := core.New(net, prt.New(cluster, 4096), core.Options{
				ID: "successor", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
				Journal: jcfg, AcquireRetries: 64,
			})
			var des []wire.Dentry
			for attempt := 0; attempt < 20; attempt++ {
				des, err = successor.Readdir(context.Background(), "/work")
				if err == nil {
					break
				}
				env.Sleep(lp / 2)
			}
			if err != nil {
				t.Fatalf("successor never served /work: %v", err)
			}
			for _, de := range des {
				names = append(names, de.Name)
			}
			sort.Strings(names)

			// The fsync'd burst is non-negotiable; tail's record was durable
			// when the crash fired, so replay must surface it too.
			want := map[string]bool{"tail": true}
			for i := 0; i < 8; i++ {
				want[fmt.Sprintf("b%d", i)] = true
			}
			got := map[string]bool{}
			for _, n := range names {
				got[n] = true
			}
			for n := range want {
				if !got[n] {
					t.Fatalf("acknowledged-durable /work/%s lost after recovery (have %v)", n, names)
				}
			}
			if err := successor.Close(); err != nil {
				t.Fatalf("successor close: %v", err)
			}
			rep, err := fsck.Check(cluster)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Clean() {
				t.Fatalf("fsck not clean after recovery: %v", rep.Problems)
			}
		})
		return names, fired
	}

	namesA, firedA := run()
	namesB, firedB := run()
	if fmt.Sprint(namesA) != fmt.Sprint(namesB) || fmt.Sprint(firedA) != fmt.Sprint(firedB) {
		t.Fatalf("same-seed replay diverged:\nA: %v %v\nB: %v %v", namesA, firedA, namesB, firedB)
	}
	if len(firedA) != 1 || firedA[0] != crashpoint.PostJournalPut {
		t.Fatalf("crash site did not fire as scripted: %v", firedA)
	}
}
