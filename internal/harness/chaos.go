// Chaos harness: seeded, deterministic failure-injection runs against a full
// ArkFS deployment under the virtual clock.
//
// A run precomputes its entire fault script at t=0 from one seeded RNG —
// crash-points armed on directory leaders, lease-manager partitions and
// restarts, network drop windows, object-store flakiness flips — then drives
// a multi-client workload through it while tracking an oracle of what each
// acknowledgement promised. At drain time every fault heals, survivors shut
// down, and a fresh verifier walks the namespace (forcing lazy journal
// recovery of every crashed directory), checks the oracle, and runs
// fsck.Check over the raw store.
//
// Because the script is fixed before the first event fires and all timing
// goes through sim.VirtEnv, replaying a seed reproduces the same scenario:
// ChaosReport.Fingerprint() is stable across runs of the same seed.
package harness

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/core"
	"arkfs/internal/crashpoint"
	"arkfs/internal/fsck"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// ChaosConfig parameterizes one chaos run. The zero value of any field is
// replaced by the default noted on it.
type ChaosConfig struct {
	Seed          int64
	Slots         int           // concurrent client slots (default 3)
	Rounds        int           // workload rounds per slot (default 6)
	FilesPerRound int           // files created per slot per round (default 4)
	LeasePeriod   time.Duration // directory lease duration (default 200ms)
	// DataWrites: write file contents too; durable files must read back
	// byte-exact through a fresh client after the run.
	DataWrites bool
	// Fault mix (counts of scripted events; defaults 3/1/2/1/1).
	Crashes     int
	MgrRestarts int
	Partitions  int
	DropWindows int
	FlakyFlips  int
	// LeaseShards > 1 runs the scenario against an elastic lease-manager
	// cluster (consistent-hash ring, grant-table persistence on) instead of
	// the single manager. Reshards scripted membership changes run
	// mid-workload: AddShard events grow the ring and hand live grants over;
	// RemoveShard events shrink it back, tombstoning the removed shard.
	// ShardRestarts kill-and-replace a ring member, which must resume from
	// its persisted grant table instead of stalling behind restart amnesia.
	// All three default when LeaseShards > 1 (2 reshards, 1 restart);
	// negative disables.
	LeaseShards   int
	Reshards      int
	ShardRestarts int
	// Corruption drill. CorruptWindows scripted windows flip bits on reads in
	// flight (transient: the stored object is untouched, a retry reads clean
	// bytes), exercising the verify-on-read paths live. After the oracle
	// verification, CorruptObjects live objects are bit-flipped at rest, the
	// scrubber must detect and repair every one, and the image must re-check
	// clean modulo the tolerated leak classes. Defaults 1 and 2; negative
	// disables.
	CorruptWindows int
	CorruptObjects int
}

func (c *ChaosConfig) fill() {
	if c.Slots <= 0 {
		c.Slots = 3
	}
	if c.Rounds <= 0 {
		c.Rounds = 6
	}
	if c.FilesPerRound <= 0 {
		c.FilesPerRound = 4
	}
	if c.LeasePeriod <= 0 {
		c.LeasePeriod = 200 * time.Millisecond
	}
	if c.Crashes < 0 {
		c.Crashes = 0
	} else if c.Crashes == 0 {
		c.Crashes = 3
	}
	if c.MgrRestarts == 0 {
		c.MgrRestarts = 1
	}
	if c.Partitions == 0 {
		c.Partitions = 2
	}
	if c.DropWindows == 0 {
		c.DropWindows = 1
	}
	if c.FlakyFlips == 0 {
		c.FlakyFlips = 1
	}
	if c.CorruptWindows == 0 {
		c.CorruptWindows = 1
	}
	if c.CorruptObjects == 0 {
		c.CorruptObjects = 2
	}
	if c.LeaseShards > 1 {
		if c.Reshards == 0 {
			c.Reshards = 2
		}
		if c.ShardRestarts == 0 {
			c.ShardRestarts = 1
		}
	}
}

// ChaosEvent is one scripted fault, scheduled before the run starts.
type ChaosEvent struct {
	At   time.Duration
	What string
}

func (e ChaosEvent) String() string { return fmt.Sprintf("t=%-12v %s", e.At, e.What) }

// ChaosReport is the outcome of a chaos run.
type ChaosReport struct {
	Seed   int64
	Script []ChaosEvent // the precomputed fault schedule, in time order
	Fired  []string     // crash sites that actually fired ("s0/post-journal-put"), sorted
	Log    []string     // human-readable run narration
	// Oracle verification tallies.
	DurableChecked, UncertainChecked int
	// Errors are assertion failures: lost acknowledged ops, resurrected
	// deletes, oracle content mismatches, and fsck findings.
	Errors []string
	Fsck   *fsck.Report
	// Corrupted lists the object keys the integrity epilogue bit-flipped at
	// rest after verification; Scrub is the repair pass that followed, whose
	// post-check must come back clean modulo tolerated leaks.
	Corrupted []string
	Scrub     *fsck.ScrubReport
	// Metrics is the deterministic metrics fingerprint of the run's shared
	// observability registry (counters and histogram counts; no latencies).
	Metrics string
	// Handoff tallies, meaningful when LeaseShards > 1: grants that moved
	// between shards intact during reshards, and grants whose transfer
	// failed (those directories fall back to the crash-grace stall).
	HandoffMoved, HandoffLost int64
}

// Failed reports whether the run violated any invariant.
func (r *ChaosReport) Failed() bool { return len(r.Errors) > 0 }

// Fingerprint identifies the scenario: the full scripted schedule plus the
// set of crash sites that fired. Two runs of the same seed and config must
// produce identical fingerprints.
func (r *ChaosReport) Fingerprint() string {
	var b strings.Builder
	for _, e := range r.Script {
		fmt.Fprintf(&b, "%v %s\n", e.At, e.What)
	}
	fired := append([]string(nil), r.Fired...)
	sort.Strings(fired)
	b.WriteString("fired: " + strings.Join(fired, ",") + "\n")
	if len(r.Corrupted) > 0 {
		b.WriteString("corrupted: " + strings.Join(r.Corrupted, ",") + "\n")
	}
	if r.Scrub != nil {
		// Sorted: scrub passes walk map-keyed groups, so raw action order is
		// not stable across runs even when the action set is.
		acts := make([]string, 0, len(r.Scrub.Actions))
		for _, a := range r.Scrub.Actions {
			acts = append(acts, a.Op+" "+a.Key)
		}
		sort.Strings(acts)
		b.WriteString("scrub: " + strings.Join(acts, ";") + "\n")
	}
	b.WriteString(r.Metrics)
	return b.String()
}

// Summary renders the report for humans; failures include the seed so the
// scenario can be replayed exactly (arkbench -chaos -seed N).
func (r *ChaosReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d: %d scripted events, %d crash sites fired\n",
		r.Seed, len(r.Script), len(r.Fired))
	for _, e := range r.Script {
		fmt.Fprintf(&b, "  %s\n", e)
	}
	fmt.Fprintf(&b, "verified: %d durable, %d uncertain paths\n", r.DurableChecked, r.UncertainChecked)
	if r.Fsck != nil {
		fmt.Fprintf(&b, "fsck: %d dirs, %d files, %d problems, %d pending journal records\n",
			r.Fsck.Dirs, r.Fsck.Files, len(r.Fsck.Problems), r.Fsck.PendingJournalRecords)
	}
	if len(r.Corrupted) > 0 && r.Scrub != nil {
		post := 0
		if r.Scrub.Post != nil {
			post = len(r.Scrub.Post.Problems)
		}
		fmt.Fprintf(&b, "integrity: %d object(s) bit-flipped at rest, scrub took %d action(s), %d post-repair problem(s)\n",
			len(r.Corrupted), len(r.Scrub.Actions), post)
	}
	if r.Failed() {
		fmt.Fprintf(&b, "FAILED (replay with seed %d):\n", r.Seed)
		for _, e := range r.Errors {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	} else {
		b.WriteString("PASS\n")
	}
	return b.String()
}

// oracle state per path.
const (
	oMustExist = iota // acknowledged durable: must survive any crash
	oMayExist         // outcome unknown: may exist (with exact content) or not
	oMustNotExist
)

type chaosOracle struct {
	mu    sync.Mutex
	paths map[string]int
	// pairs are uncertain cross-directory renames: after convergence at
	// least one of the two paths must hold the file.
	pairs [][2]string
	// content maps a path to the path whose chaosContent it holds. A rename
	// moves the file, so the destination carries the *source* path's payload.
	content map[string]string
}

func (o *chaosOracle) set(path string, st int) {
	o.mu.Lock()
	o.paths[path] = st
	o.mu.Unlock()
}

func (o *chaosOracle) moved(src, dst string) {
	o.mu.Lock()
	key := src
	if k, ok := o.content[src]; ok {
		key = k
	}
	o.content[dst] = key
	o.mu.Unlock()
}

func (o *chaosOracle) contentKey(path string) string {
	o.mu.Lock()
	defer o.mu.Unlock()
	if k, ok := o.content[path]; ok {
		return k
	}
	return path
}

func (o *chaosOracle) pair(src, dst string) {
	o.mu.Lock()
	o.paths[src] = oMayExist
	o.paths[dst] = oMayExist
	o.pairs = append(o.pairs, [2]string{src, dst})
	o.mu.Unlock()
}

// chaosContent derives a file's expected payload from its path, so the
// verifier needs no side channel.
func chaosContent(path string) []byte {
	h := fnv.New64a()
	_, _ = h.Write([]byte(path))
	sum := h.Sum64()
	n := 256 + int(sum%1536) // 256..1791 bytes, always within one chunk
	buf := make([]byte, n)
	for i := range buf {
		sum = sum*6364136223846793005 + 1442695040888963407
		buf[i] = byte(sum >> 56)
	}
	return buf
}

// slotState is one client slot: a chain of client generations, each a fresh
// process. A crash kills the current generation; the driver spawns the next.
type slotState struct {
	mu    sync.Mutex
	c     *core.Client
	set   *crashpoint.Set
	gen   int
	path  string
	dirIn types.Ino
}

func (s *slotState) client() (*core.Client, *crashpoint.Set) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c, s.set
}

// chaosRun carries the live pieces of one run.
type chaosRun struct {
	cfg     ChaosConfig
	env     *sim.VirtEnv
	rep     *ChaosReport
	cluster *objstore.Cluster
	fault   *objstore.FaultStore
	net     *rpc.Network
	plan    *rpc.FaultPlan
	mgrMu   sync.Mutex
	mgr     *lease.Manager
	leases  *lease.Cluster
	addedMu sync.Mutex
	added   []rpc.Addr // shards added by reshard events, newest last
	reg     *obs.Registry
	slots   []*slotState
	oracle  *chaosOracle
	chunk   int64

	logMu sync.Mutex
	fires *sim.Chan[int] // slot indices whose client just crashed
}

// router mints a fresh per-client ring router in cluster mode (nil for the
// single manager; core then uses the static LeaseMgr address).
func (r *chaosRun) router() lease.Router {
	if r.leases == nil {
		return nil
	}
	return r.leases.Router()
}

// options are the core.Options every client of the run starts from: its
// identity and seed, lease routing and period, and the journal's commit
// cadence.
func (r *chaosRun) options(id string, seed int64) core.Options {
	return core.Options{
		ID: id, Cred: types.Cred{Uid: 1000, Gid: 1000}, LeaseRouter: r.router(), LeasePeriod: r.cfg.LeasePeriod,
		Journal: journal.Config{CommitInterval: r.cfg.LeasePeriod / 4, CommitWorkers: 2, CheckpointWorkers: 2},
		Seed:    seed,
	}
}

func (r *chaosRun) logf(format string, args ...any) {
	r.logMu.Lock()
	r.rep.Log = append(r.rep.Log, fmt.Sprintf("t=%-12v %s", r.env.Now(), fmt.Sprintf(format, args...)))
	r.logMu.Unlock()
}

func (r *chaosRun) errf(format string, args ...any) {
	r.logMu.Lock()
	r.rep.Errors = append(r.rep.Errors, fmt.Sprintf(format, args...))
	r.logMu.Unlock()
}

// RunChaos executes one seeded chaos scenario under a fresh virtual-time
// environment and returns its report. It never panics on invariant
// violations; they are collected in the report's Errors.
func RunChaos(cfg ChaosConfig) *ChaosReport {
	cfg.fill()
	rep := &ChaosReport{Seed: cfg.Seed}
	env := sim.NewVirtEnv()
	env.Run(func() {
		r := &chaosRun{cfg: cfg, env: env, rep: rep,
			oracle: &chaosOracle{paths: map[string]int{}, content: map[string]string{}}, chunk: 4096}
		r.run()
	})
	sort.Strings(rep.Fired)
	return rep
}

func (r *chaosRun) newClient(slot *slotState, idx int) {
	set := crashpoint.NewSet()
	gen := slot.gen
	set.OnFire(func(site crashpoint.Site) {
		r.logMu.Lock()
		r.rep.Fired = append(r.rep.Fired, fmt.Sprintf("s%d/%s", idx, site))
		r.logMu.Unlock()
		r.logf("crash fired: slot %d gen %d at %s", idx, gen, site)
	})
	o := r.options(fmt.Sprintf("s%d-g%d", idx, gen), r.cfg.Seed*7919+int64(idx)*1000+int64(gen)+1)
	o.Journal.CheckpointFanout, o.Journal.PipelineDepth = 8, 4
	o.Cache = cache.Config{EntrySize: r.chunk, MaxEntries: 32, FlushParallelism: 4, PrefetchParallelism: 2}
	o.RPCWorkers, o.AcquireRetries, o.Obs, o.Crash = 4, 64, r.reg, set
	c := core.New(r.net, prt.New(r.fault, r.chunk), o)
	slot.mu.Lock()
	slot.c, slot.set = c, set
	slot.mu.Unlock()
}

func (r *chaosRun) run() {
	cfg := r.cfg
	env := r.env
	lp := cfg.LeasePeriod

	// --- Deployment: cluster, fault layers, lease manager, client slots.
	prof := objstore.TestProfile() // real payloads, so read-back verifies content
	r.cluster = objstore.NewCluster(env, prof)
	defer r.cluster.Close()
	if err := core.Format(prt.New(r.cluster, r.chunk)); err != nil {
		r.errf("format: %v", err)
		return
	}
	r.fault = objstore.NewFaultStore(r.cluster)
	r.reg = obs.NewRegistry()
	r.net = rpc.NewNetwork(env, sim.NetModel{Latency: 20 * time.Microsecond, Bandwidth: 1 << 30})
	r.net.SetObs(r.reg)
	r.plan = rpc.NewFaultPlan(env, cfg.Seed+1)
	r.plan.SetTimeout(lp / 16)
	r.net.SetFaultPlan(r.plan)
	if cfg.LeaseShards > 1 {
		// Elastic cluster mode: rendezvous ring over the shards, grant
		// tables persisted to the raw cluster (control-plane writes bypass
		// the scripted data-path faults; failover realism comes from the
		// shard kill/restart events).
		r.leases = lease.NewCluster(r.net, lease.ClusterOptions{
			Shards:  cfg.LeaseShards,
			Store:   r.cluster,
			Manager: lease.Options{Period: lp, Workers: 8, Obs: r.reg},
		})
	} else {
		r.mgr = lease.NewManager(r.net, lease.Options{Period: lp, Workers: 8, Obs: r.reg})
	}
	r.fires = sim.NewChan[int](env)

	// --- Setup phase: the working directories exist and are durable before
	// any fault fires; the root directory is never mutated again, so chaos
	// cannot lose a working directory itself.
	setup := core.New(r.net, prt.New(r.cluster, r.chunk), r.options("setup", 0))
	r.slots = make([]*slotState, cfg.Slots)
	for i := range r.slots {
		s := &slotState{path: fmt.Sprintf("/w%d", i)}
		if err := setup.Mkdir(context.Background(), s.path, 0777); err != nil {
			r.errf("setup mkdir %s: %v", s.path, err)
			return
		}
		node, err := setup.Stat(context.Background(), s.path)
		if err != nil {
			r.errf("setup stat %s: %v", s.path, err)
			return
		}
		s.dirIn = node.Ino
		r.slots[i] = s
	}
	if err := setup.Close(); err != nil {
		r.errf("setup close: %v", err)
		return
	}
	for i, s := range r.slots {
		r.newClient(s, i)
	}

	// --- Precompute the fault script. Every random choice is drawn here,
	// before the first event can fire, in a fixed order: the schedule is a
	// pure function of the seed. Event times are relative to base (the end of
	// the setup phase, itself deterministic under the virtual clock).
	rng := rand.New(rand.NewSource(cfg.Seed))
	base := env.Now()
	stepGap := lp / 8
	scriptStart := 2 * lp
	scriptEnd := scriptStart + time.Duration(cfg.Rounds*cfg.FilesPerRound)*stepGap
	window := scriptEnd - scriptStart
	at := func() time.Duration { return scriptStart + time.Duration(rng.Int63n(int64(window))) }
	addEvent := func(t time.Duration, what string, fire func()) {
		r.rep.Script = append(r.rep.Script, ChaosEvent{At: t, What: what})
		if fire != nil {
			env.After(t, fire) // scheduled at base, so this fires at base+t
		}
	}

	crashSites := []crashpoint.Site{
		crashpoint.PreJournalPut, crashpoint.PostJournalPut,
		crashpoint.MidCheckpoint, crashpoint.PostCheckpoint,
		crashpoint.TwoPCPostPrepare, crashpoint.TwoPCPostDecision,
	}
	for i := 0; i < cfg.Crashes; i++ {
		t := at()
		slot := rng.Intn(cfg.Slots)
		site := crashSites[rng.Intn(len(crashSites))]
		addEvent(t, fmt.Sprintf("arm-crash slot=%d site=%s", slot, site), func() {
			s := r.slots[slot]
			c, set := s.client()
			set.Arm(site, func() {
				c.Crash()
				r.fires.Send(slot)
			})
			r.logf("armed crash at %s on slot %d gen %d", site, slot, s.gen)
		})
	}
	for i := 0; i < cfg.Partitions; i++ {
		t := at()
		dur := lp/2 + time.Duration(rng.Int63n(int64(2*lp)))
		// One-way wildcard partition: nobody reaches the lease manager (or,
		// sharded, one ring member), so extends and acquires time out until
		// the heal.
		var target rpc.Addr
		if r.leases != nil {
			members := r.leases.Ring().Members
			target = members[rng.Intn(len(members))]
		} else {
			target = r.mgr.Addr()
		}
		r.plan.PartitionFor(nil, []rpc.Addr{target}, base+t, base+t+dur)
		addEvent(t, fmt.Sprintf("partition *->%s for %v", target, dur), nil)
		addEvent(t+dur, fmt.Sprintf("heal *->%s", target), nil)
	}
	for i := 0; i < cfg.DropWindows; i++ {
		t := at()
		dur := lp/2 + time.Duration(rng.Int63n(int64(lp)))
		prob := 0.02 + rng.Float64()*0.08
		addEvent(t, fmt.Sprintf("drop-on p=%.3f", prob), func() { r.plan.SetDrop(prob) })
		addEvent(t+dur, "drop-off", func() { r.plan.SetDrop(0) })
	}
	for i := 0; i < cfg.FlakyFlips; i++ {
		t := at()
		dur := lp/2 + time.Duration(rng.Int63n(int64(lp)))
		prob := 0.01 + rng.Float64()*0.04
		seed := rng.Int63()
		addEvent(t, fmt.Sprintf("flaky-on p=%.3f", prob), func() { r.fault.SetFlaky(prob, seed) })
		addEvent(t+dur, "flaky-off", func() { r.fault.SetFlaky(0, 0) })
	}
	for i := 0; i < cfg.CorruptWindows; i++ {
		t := at()
		dur := lp/2 + time.Duration(rng.Int63n(int64(lp)))
		// Kept low: every verify-on-read path re-reads once before reacting
		// destructively, so only a double flip on the same object can do harm.
		prob := 0.005 + rng.Float64()*0.015
		seed := rng.Int63()
		addEvent(t, fmt.Sprintf("corrupt-reads-on p=%.3f", prob), func() { r.fault.SetCorruptReads("", prob, seed) })
		addEvent(t+dur, "corrupt-reads-off", func() { r.fault.SetCorruptReads("", 0, 0) })
	}
	var mgrDownUntil time.Duration
	if r.leases == nil {
		for i := 0; i < cfg.MgrRestarts; i++ {
			t := at()
			down := lp / 2
			if t+down > mgrDownUntil {
				mgrDownUntil = t + down
			}
			addEvent(t, "mgr-stop", func() {
				r.mgrMu.Lock()
				r.mgr.Close()
				r.mgrMu.Unlock()
			})
			addEvent(t+down, "mgr-restart (quiesce)", func() {
				r.mgrMu.Lock()
				r.mgr = lease.NewManager(r.net, lease.Options{Period: lp, Workers: 8, Restarted: true, Obs: r.reg})
				r.mgrMu.Unlock()
			})
		}
	} else {
		// Shard failover: kill a ring member mid-workload and replace it
		// half a period later. With the persisted grant table the
		// replacement resumes granting; its territory must not pay the full
		// restart-amnesia grace.
		initial := r.leases.Ring().Members
		for i := 0; i < cfg.ShardRestarts; i++ {
			t := at()
			down := lp / 2
			victim := initial[rng.Intn(len(initial))]
			if t+down > mgrDownUntil {
				mgrDownUntil = t + down
			}
			addEvent(t, fmt.Sprintf("shard-stop %s", victim), func() {
				if err := r.leases.KillShard(victim); err != nil {
					r.logf("shard-stop %s: %v", victim, err)
				}
			})
			addEvent(t+down, fmt.Sprintf("shard-restart %s (resume)", victim), func() {
				if err := r.leases.RestartShard(victim); err != nil {
					r.logf("shard-restart %s: %v", victim, err)
				}
			})
		}
		// Runtime resharding: grow the ring mid-workload (handing live
		// grants to the new shard), and shrink it back by removing the most
		// recently added shard (tombstoning it). A remove scheduled before
		// any add has landed is a no-op.
		for i := 0; i < cfg.Reshards; i++ {
			t := at()
			if i%2 == 0 {
				addEvent(t, "lease-addshard", func() {
					addr, err := r.leases.AddShard()
					if err != nil {
						r.logf("addshard: %v", err)
						return
					}
					r.addedMu.Lock()
					r.added = append(r.added, addr)
					r.addedMu.Unlock()
					r.logf("addshard %s, ring now %s", addr, r.leases.Ring())
				})
			} else {
				addEvent(t, "lease-removeshard", func() {
					r.addedMu.Lock()
					if len(r.added) == 0 {
						r.addedMu.Unlock()
						r.logf("removeshard: nothing added yet, skipping")
						return
					}
					victim := r.added[len(r.added)-1]
					r.added = r.added[:len(r.added)-1]
					r.addedMu.Unlock()
					if err := r.leases.RemoveShard(victim); err != nil {
						r.logf("removeshard %s: %v", victim, err)
						return
					}
					r.logf("removeshard %s, ring now %s", victim, r.leases.Ring())
				})
			}
		}
	}
	sort.Slice(r.rep.Script, func(i, j int) bool {
		if r.rep.Script[i].At != r.rep.Script[j].At {
			return r.rep.Script[i].At < r.rep.Script[j].At
		}
		return r.rep.Script[i].What < r.rep.Script[j].What
	})

	// --- Crash respawner: each kill is followed by the next generation of
	// that slot, a cold process that re-discovers everything.
	respawn := sim.NewGroup(env)
	respawn.Go(func() {
		for {
			slot, ok := r.fires.Recv()
			if !ok {
				return
			}
			s := r.slots[slot]
			s.mu.Lock()
			s.gen++
			s.mu.Unlock()
			r.newClient(s, slot)
			r.logf("respawned slot %d as gen %d", slot, s.gen)
		}
	})

	// --- Workload: every slot runs rounds of creates (plus deletes and
	// cross-directory renames), pacing itself on the virtual clock. Ops talk
	// to whatever generation currently owns the slot.
	wg := sim.NewGroup(env)
	for i := range r.slots {
		idx := i
		wrng := rand.New(rand.NewSource(cfg.Seed*31 + int64(idx)))
		wg.Go(func() { r.workload(idx, wrng, stepGap) })
	}
	wg.Wait()

	// --- Drain: let the script window lapse, lift every fault, stop the
	// survivors, and wait out lease grace so crashed directories become
	// recoverable.
	if now, until := env.Now(), base+mgrDownUntil; now < until {
		env.Sleep(until - now)
	}
	if now, until := env.Now(), base+scriptEnd; now < until {
		env.Sleep(until - now)
	}
	for _, s := range r.slots {
		_, set := s.client()
		for _, site := range crashSites {
			set.Disarm(site)
		}
	}
	r.fires.Close()
	respawn.Wait()
	r.plan.HealAll()
	r.plan.SetDrop(0)
	r.fault.SetFlaky(0, 0)
	r.fault.SetCorruptReads("", 0, 0)
	r.logf("drain: faults healed, closing survivors")
	for i, s := range r.slots {
		c, set := s.client()
		if set.Killed() {
			continue
		}
		if err := c.Close(); err != nil {
			// An unclean close: the manager re-gates the slot's directories
			// behind recovery; the verifier's walk will trigger it.
			r.logf("slot %d closed unclean: %v", i, err)
		}
	}
	env.Sleep(3 * cfg.LeasePeriod) // expiry + recovery grace for lapsed leases

	r.verify()
	r.integrityEpilogue()
	r.rep.HandoffMoved = r.reg.Counter("lease.handoff.moved").Value()
	r.rep.HandoffLost = r.reg.Counter("lease.handoff.lost").Value()
	r.rep.Metrics = r.reg.Snapshot().Fingerprint()
}

// workload runs one slot's rounds.
func (r *chaosRun) workload(idx int, rng *rand.Rand, stepGap time.Duration) {
	cfg := r.cfg
	s := r.slots[idx]
	var durable []string // own durable files, fodder for deletes and renames
	for round := 0; round < cfg.Rounds; round++ {
		for f := 0; f < cfg.FilesPerRound; f++ {
			r.env.Sleep(stepGap)
			// Mostly work in the slot's own directory; every few files hit a
			// neighbour's directory to exercise forwarding under faults.
			target := s
			cross := cfg.Slots > 1 && rng.Intn(4) == 0
			if cross {
				target = r.slots[(idx+1+rng.Intn(cfg.Slots-1))%cfg.Slots]
			}
			path := fmt.Sprintf("%s/s%d-r%02d-f%02d", target.path, idx, round, f)
			if r.createFile(s, path, target.dirIn) && !cross {
				durable = append(durable, path)
			}

			switch {
			case len(durable) > 2 && rng.Intn(6) == 0:
				// Delete an old durable file.
				victim := durable[0]
				durable = durable[1:]
				r.deleteFile(s, victim)
			case cfg.Slots > 1 && len(durable) > 2 && rng.Intn(6) == 0:
				// Cross-directory rename of a durable file (2PC).
				victim := durable[0]
				durable = durable[1:]
				other := r.slots[(idx+1+rng.Intn(cfg.Slots-1))%cfg.Slots]
				dst := fmt.Sprintf("%s/mv-s%d-r%02d-f%02d", other.path, idx, round, f)
				r.renameFile(s, victim, dst)
			}
		}
	}
}

// createFile creates path through the slot's current client and reports
// whether the oracle recorded it as durable.
func (r *chaosRun) createFile(s *slotState, path string, dirIn types.Ino) bool {
	c, _ := s.client()
	f, err := c.Create(context.Background(), path, 0644)
	if err != nil {
		r.oracle.set(path, oMayExist)
		return false
	}
	if r.cfg.DataWrites {
		if _, err := f.Write(chaosContent(path)); err != nil {
			_ = f.Close()
			r.oracle.set(path, oMayExist)
			return false
		}
		if err := f.Fsync(context.Background()); err != nil {
			_ = f.Close()
			r.oracle.set(path, oMayExist)
			return false
		}
	}
	if err := f.Close(); err != nil {
		r.oracle.set(path, oMayExist)
		return false
	}
	// Fsync flushes the parent's journal only if this client leads it; a
	// remote leader's ack promises nothing durable yet.
	if err := c.Fsync(context.Background(), path); err != nil || !c.Leads(dirIn) {
		r.oracle.set(path, oMayExist)
		return false
	}
	r.oracle.set(path, oMustExist)
	return true
}

func (r *chaosRun) deleteFile(s *slotState, path string) {
	c, _ := s.client()
	if err := c.Unlink(context.Background(), path); err != nil {
		r.oracle.set(path, oMayExist)
		return
	}
	if err := c.Fsync(context.Background(), path); err != nil || !c.Leads(s.dirIn) {
		r.oracle.set(path, oMayExist)
		return
	}
	r.oracle.set(path, oMustNotExist)
}

func (r *chaosRun) renameFile(s *slotState, src, dst string) {
	c, _ := s.client()
	r.oracle.moved(src, dst) // wherever the file lands, it carries src's payload
	err := c.Rename(context.Background(), src, dst)
	r.logf("rename %s -> %s: %v", src, dst, err)
	if err != nil {
		// Undecided (or aborted): after convergence exactly one side holds
		// the file; the oracle asserts at least one.
		r.oracle.pair(src, dst)
		return
	}
	// A cross-directory rename acknowledges only after its 2PC decision
	// record is durable, so a nil error is a durability barrier by itself.
	r.oracle.set(src, oMustNotExist)
	r.oracle.set(dst, oMustExist)
}

// toleratedLeaks are the fsck problem classes a kill can legitimately leave
// behind: a crash between the object puts of one logical operation leaks
// unreachable objects (an inode whose dentry-add record was never durable,
// chunks whose metadata flush never happened) — space for a GC pass, not
// corruption. Everything outside this set — dangling dentries, torn records,
// structural damage — fails the run.
var toleratedLeaks = map[string]bool{
	"orphan-inode": true, "orphan-dentries": true,
	"dangling-chunks": true, "orphan-chunks": true,
	"chunk-beyond-eof": true, "orphan-journal": true,
}

// splitLeaks splits problems into the tolerated leaks and the rest: the ones
// that fail a run.
func splitLeaks(problems []fsck.Problem) (leaks, bad []fsck.Problem) {
	for _, p := range problems {
		if toleratedLeaks[p.Kind] {
			leaks = append(leaks, p)
		} else {
			bad = append(bad, p)
		}
	}
	return leaks, bad
}

// verify walks the namespace with a fresh client (forcing journal recovery of
// every crashed directory), checks the oracle, and runs fsck.
func (r *chaosRun) verify() {
	o := r.options("verify", r.cfg.Seed*7919+999983)
	o.AcquireRetries = 64
	v := core.New(r.net, prt.New(r.fault, r.chunk), o)
	// Force recovery of every working directory up front; retries ride out
	// residual lease grace.
	for _, s := range r.slots {
		var err error
		for attempt := 0; attempt < 20; attempt++ {
			if _, err = v.Readdir(context.Background(), s.path); err == nil {
				break
			}
			r.env.Sleep(r.cfg.LeasePeriod / 2)
		}
		if err != nil {
			r.errf("verifier cannot list %s: %v", s.path, err)
		}
	}

	r.oracle.mu.Lock()
	paths := make([]string, 0, len(r.oracle.paths))
	for p := range r.oracle.paths {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pairs := append([][2]string(nil), r.oracle.pairs...)
	states := make(map[string]int, len(paths))
	for p, st := range r.oracle.paths {
		states[p] = st
	}
	r.oracle.mu.Unlock()

	exists := func(p string) (bool, error) {
		_, err := v.Stat(context.Background(), p)
		if err == nil {
			return true, nil
		}
		if errors.Is(err, types.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	for _, p := range paths {
		ok, err := exists(p)
		if err != nil {
			r.errf("verify stat %s: %v", p, err)
			continue
		}
		switch states[p] {
		case oMustExist:
			r.rep.DurableChecked++
			if !ok {
				r.errf("lost acknowledged op: %s was durable but is gone", p)
				continue
			}
			if r.cfg.DataWrites {
				r.checkContent(v, p)
			}
		case oMustNotExist:
			r.rep.DurableChecked++
			if ok {
				r.errf("resurrected: %s was durably removed but exists", p)
			}
		default:
			r.rep.UncertainChecked++
		}
	}
	for _, pr := range pairs {
		srcOK, err1 := exists(pr[0])
		dstOK, err2 := exists(pr[1])
		if err1 != nil || err2 != nil {
			continue // already reported above
		}
		if !srcOK && !dstOK {
			r.errf("rename lost both sides: %s -> %s", pr[0], pr[1])
		}
	}
	if err := v.Close(); err != nil {
		r.errf("verifier close: %v", err)
	}
	r.env.Sleep(r.cfg.LeasePeriod / 4) // let released leases settle

	rep, err := fsck.Check(r.cluster)
	if err != nil {
		r.errf("fsck: %v", err)
		return
	}
	r.rep.Fsck = rep
	leaks, bad := splitLeaks(rep.Problems)
	for _, p := range leaks {
		r.logf("fsck leak (tolerated): %s", p)
	}
	for _, p := range bad {
		r.errf("fsck: %s", p)
	}
}

// checkContent reads p back through v and compares against the oracle.
func (r *chaosRun) checkContent(v *core.Client, p string) {
	want := chaosContent(r.oracle.contentKey(p))
	f, err := v.Open(context.Background(), p, types.ORdonly, 0)
	if err != nil {
		r.errf("verify open %s: %v", p, err)
		return
	}
	defer func() { _ = f.Close() }()
	if f.Size() != int64(len(want)) {
		r.errf("verify %s: size %d, want %d", p, f.Size(), len(want))
		return
	}
	got := make([]byte, len(want))
	n, err := f.ReadAt(got, 0)
	if err != nil || n != len(want) {
		r.errf("verify read %s: n=%d err=%v", p, n, err)
		return
	}
	for i := range want {
		if got[i] != want[i] {
			r.errf("verify %s: content mismatch at byte %d", p, i)
			return
		}
	}
}

// integrityEpilogue is the at-rest corruption drill, run after the oracle
// verification so it cannot disturb those checks: flip one byte in
// CorruptObjects live objects chosen deterministically from the converged
// image, then demand the scrubber detect and act on every one, and that the
// repaired image re-checks clean modulo the tolerated leak classes.
func (r *chaosRun) integrityEpilogue() {
	if r.cfg.CorruptObjects <= 0 {
		return
	}
	// Data chunks, dentry blocks, and journal records: every class the
	// scrubber repairs or quarantines without leaving structural damage.
	// Inode objects are excluded — quarantining one whose journaled copy was
	// checkpointed away leaves a dangling dentry, which is corruption-class.
	// The superblock is excluded because its rewrite assumes the default
	// chunk size and chaos runs format with a smaller one.
	var err error
	r.rep.Corrupted, err = flipAtRest(r.cluster, r.cfg.CorruptObjects, r.cfg.Seed*104729+11, 0x20,
		prt.PrefixData, prt.PrefixDentry, prt.PrefixJournal)
	for _, k := range r.rep.Corrupted {
		r.logf("epilogue: flipped one bit at rest in %s", k)
	}
	if err != nil {
		r.errf("epilogue corrupt: %v", err)
		return
	}
	if len(r.rep.Corrupted) == 0 {
		return
	}

	scrub, err := fsck.Scrub(r.cluster, true)
	r.rep.Scrub = scrub
	if err != nil {
		r.errf("epilogue scrub: %v", err)
		return
	}
	for _, k := range unrepaired(scrub, r.rep.Corrupted) {
		r.errf("epilogue: scrub neither repaired nor quarantined corrupted object %s", k)
	}
	if scrub.Post == nil {
		r.errf("epilogue: repair run produced no post-check")
		return
	}
	leaks, bad := splitLeaks(scrub.Post.Problems)
	for _, p := range leaks {
		r.logf("epilogue fsck leak (tolerated): %s", p)
	}
	for _, p := range bad {
		r.errf("epilogue post-repair fsck: %s", p)
	}
}
