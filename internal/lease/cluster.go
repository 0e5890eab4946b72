package lease

import (
	"fmt"
	"slices"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
)

// Cluster is an elastic group of lease-manager shards behind one consistent-
// hash ring. Directories map onto shards by rendezvous hashing, so each
// membership change moves only the minimal key range; each shard is an
// ordinary Manager, so every property of the single-manager protocol (FCFS,
// extension, recovery gating, restart quiesce) holds per directory — a
// directory's entire lease lifecycle lives on exactly one shard at a time.
//
// Membership changes are runtime operations. AddShard and RemoveShard bump
// the ring epoch and run the handoff state machine:
//
//  1. freeze — the gaining shard answers short waits on its new territory
//     (StartGain), so no grant can bypass an in-flight transfer;
//  2. cut over — each losing shard installs the new ring (BeginHandoff),
//     extracts the live grant state of every directory it loses, and from
//     that moment redirects those directories' clients to the new owner;
//  3. transfer — the extracted grants travel to the gaining shards
//     (HandoffReq); a failed transfer demotes its range to a suspicion
//     record, so only those directories pay the crash-grace stall;
//  4. thaw — the gaining shards unfreeze (FinishGain) and serve the moved
//     directories from the transferred chains, no grace period.
//
// Clients are not notified: they learn the new ring lazily from StaleRing
// redirects (the epoch they used rides each request's rpc envelope).
type Cluster struct {
	env  sim.Env
	net  *rpc.Network
	opts Options

	// reshardMu serializes membership changes; handoff transfers block
	// through the environment, so this must be a sim mutex.
	reshardMu *sim.Mutex

	mu     *sim.Mutex
	ring   Ring
	mgrs   map[rpc.Addr]*Manager
	tombs  map[rpc.Addr]*Manager
	nextID int
	closed bool

	gEpoch    *obs.Gauge
	gShards   *obs.Gauge
	cMoved    *obs.Counter
	cLost     *obs.Counter
	cReshards *obs.Counter
}

// ClusterOptions configures a Cluster beyond the per-shard Options.
type ClusterOptions struct {
	// Shards is the initial shard count (default 1).
	Shards int
	// Store, when non-nil, gives every shard grant-table persistence: each
	// chain mutation is snapshotted (sealed, CRC-trailed) before it is
	// acknowledged, and a restarted shard resumes instead of quiescing.
	Store objstore.Store
	// Manager carries the per-shard options (Period, Workers, Obs, …). Addr,
	// Ring and Store are managed by the cluster.
	Manager Options
}

// NewCluster starts an elastic lease cluster.
func NewCluster(net *rpc.Network, o ClusterOptions) *Cluster {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	o.Manager.Store = o.Store
	c := &Cluster{
		env:       net.Env(),
		net:       net,
		opts:      o.Manager,
		reshardMu: sim.NewMutex(net.Env()),
		mu:        sim.NewMutex(net.Env()),
		mgrs:      make(map[rpc.Addr]*Manager),
		tombs:     make(map[rpc.Addr]*Manager),
	}
	c.gEpoch = o.Manager.Obs.Gauge("lease.ring.epoch")
	c.gShards = o.Manager.Obs.Gauge("lease.ring.shards")
	c.cMoved = o.Manager.Obs.Counter("lease.handoff.moved")
	c.cLost = o.Manager.Obs.Counter("lease.handoff.lost")
	c.cReshards = o.Manager.Obs.Counter("lease.reshards")
	members := make([]rpc.Addr, o.Shards)
	for i := range members {
		members[i] = c.addrFor(i)
	}
	c.nextID = o.Shards
	c.ring = NewRing(members...)
	for _, a := range members {
		mo := c.opts
		mo.Addr = a
		mo.Ring = c.ring
		c.mgrs[a] = NewManager(net, mo)
	}
	c.gEpoch.Set(int64(c.ring.Epoch))
	c.gShards.Set(int64(len(members)))
	return c
}

func (c *Cluster) addrFor(i int) rpc.Addr {
	return rpc.Addr(fmt.Sprintf("leasemgr-%d", i))
}

// Router returns a fresh per-client router seeded with the current ring.
// Each client owns its router: StaleRing redirects update it lazily, so a
// resharding never has to find or notify the client population.
func (c *Cluster) Router() Router {
	c.mu.Lock()
	defer c.mu.Unlock()
	return NewRouter(c.ring)
}

// Ring returns the cluster's current membership.
func (c *Cluster) Ring() Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// Period returns the shared lease duration, valid even before any shard
// exists.
func (c *Cluster) Period() time.Duration {
	if c.opts.Period > 0 {
		return c.opts.Period
	}
	return DefaultPeriod
}

// AddShard grows the cluster by one shard and hands the territory the new
// ring assigns to it over from the losing shards. It returns the new shard's
// address. Directories whose grant state transfers successfully never pay a
// grace stall; failed transfers are recorded as suspicion on the gainer.
func (c *Cluster) AddShard() (rpc.Addr, error) {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", fmt.Errorf("lease: cluster closed")
	}
	prev := c.ring
	addr := c.addrFor(c.nextID)
	c.nextID++
	nr := prev.With(addr)
	mo := c.opts
	mo.Addr = addr
	mo.Ring = nr
	nm := NewManager(c.net, mo)
	c.mgrs[addr] = nm
	c.mu.Unlock()

	// Freeze the new shard's territory before any loser starts redirecting
	// clients to it: a grant issued from blank state could bypass a live
	// chain still in flight inside a HandoffReq.
	nm.StartGain(prev, nr)
	c.mu.Lock()
	losers := make(map[rpc.Addr]*Manager, len(c.mgrs))
	for a, m := range c.mgrs {
		if a != addr {
			losers[a] = m
		}
	}
	c.mu.Unlock()
	c.reshard(prev, nr, losers, map[rpc.Addr]*Manager{addr: nm})
	return addr, nil
}

// RemoveShard shrinks the cluster, handing the removed shard's territory to
// the survivors. The shard itself stays on the network as a tombstone that
// answers every request with a StaleRing redirect, so clients holding the
// old ring converge instead of timing out.
func (c *Cluster) RemoveShard(addr rpc.Addr) error {
	c.reshardMu.Lock()
	defer c.reshardMu.Unlock()

	c.mu.Lock()
	victim := c.mgrs[addr]
	if victim == nil {
		c.mu.Unlock()
		return fmt.Errorf("lease: no shard %q", addr)
	}
	if len(c.ring.Members) == 1 {
		c.mu.Unlock()
		return fmt.Errorf("lease: cannot remove the last shard")
	}
	prev := c.ring
	nr := prev.Without(addr)
	gainers := make(map[rpc.Addr]*Manager, len(nr.Members))
	for _, a := range nr.Members {
		gainers[a] = c.mgrs[a]
	}
	delete(c.mgrs, addr)
	c.tombs[addr] = victim
	c.mu.Unlock()

	// Rendezvous hashing moves keys only victim→survivors on a removal, so
	// the survivors gain and nobody else loses. Freeze them all first.
	for _, a := range sortedAddrs(gainers) {
		gainers[a].StartGain(prev, nr)
	}
	c.reshard(prev, nr, map[rpc.Addr]*Manager{addr: victim}, gainers)
	victim.Tombstone(nr)
	return nil
}

// reshard runs the cut-over/transfer/thaw phases of a membership change:
// every losing shard installs nr and yields the grants it loses, the grants
// travel to their new owners, and the gainers thaw. Transfer failures become
// suspicion records delivered with the thaw.
func (c *Cluster) reshard(prev, nr Ring, losers, gainers map[rpc.Addr]*Manager) {
	c.mu.Lock()
	c.ring = nr
	c.mu.Unlock()

	var lost []suspect
	var inherited []suspect
	for _, a := range sortedAddrs(losers) {
		moved, sus := losers[a].BeginHandoff(nr)
		inherited = append(inherited, sus...)
		for _, to := range sortedAddrs(moved) {
			grants := moved[to]
			if err := c.transfer(a, to, nr.Epoch, grants); err != nil {
				// The grants are gone from the loser and never reached the
				// gainer: mark the loser's old range suspect for one period
				// from the gainer's receipt. Every lease a shard grants ends
				// within a period of its answer, so none lost ends later.
				lost = append(lost, suspect{prev: prev, from: a, expiry: c.Period()})
				c.cLost.Add(int64(len(grants)))
			} else {
				c.cMoved.Add(int64(len(grants)))
			}
		}
	}
	thaw := append(append([]suspect(nil), inherited...), lost...)
	for _, a := range sortedAddrs(gainers) {
		gainers[a].FinishGain(thaw)
	}
	c.cReshards.Inc()
	c.gEpoch.Set(int64(nr.Epoch))
	c.gShards.Set(int64(len(nr.Members)))
}

// transfer ships one loser→gainer grant batch, retrying through transient
// network faults; a few attempts suffice because both ends are local
// listeners and the fault plan's windows are short.
func (c *Cluster) transfer(from, to rpc.Addr, epoch Epoch, grants []DirGrant) error {
	req := HandoffReq{Epoch: epoch, From: from, Grants: grants}
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			c.env.Sleep(time.Duration(attempt) * 2 * time.Millisecond)
		}
		var resp any
		resp, err = c.net.CallFrom(from, to, req)
		if err != nil {
			continue
		}
		if hr, ok := resp.(HandoffResp); ok && hr.OK {
			return nil
		}
		err = fmt.Errorf("lease: handoff %s→%s rejected", from, to)
	}
	return err
}

// KillShard crash-stops the shard at addr: its server vanishes from the
// network but it stays a ring member, so its territory stalls (or, with
// persistence, resumes at RestartShard) exactly like a crashed manager.
func (c *Cluster) KillShard(addr rpc.Addr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.mgrs[addr]
	if m == nil {
		return fmt.Errorf("lease: no shard %q", addr)
	}
	m.Close()
	return nil
}

// RestartShard replaces a killed shard with a fresh manager at the same
// address. With cluster persistence it resumes from its sealed grant-table
// snapshot — known directories grant immediately, only post-snapshot residue
// is conservative; without, it restarts amnesiac and quiesces one period.
func (c *Cluster) RestartShard(addr rpc.Addr) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mgrs[addr] == nil {
		return fmt.Errorf("lease: no shard %q", addr)
	}
	mo := c.opts
	mo.Addr = addr
	mo.Ring = c.ring
	mo.Restarted = true
	c.mgrs[addr] = NewManager(c.net, mo)
	return nil
}

// Close stops every shard and tombstone. It is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, a := range sortedAddrs(c.mgrs) {
		c.mgrs[a].Close()
	}
	for _, a := range sortedAddrs(c.tombs) {
		c.tombs[a].Close()
	}
}

// sortedAddrs returns m's keys in order: shards are visited in it, not in the
// map's, so a seeded simulation replays its reshards message for message.
func sortedAddrs[V any](m map[rpc.Addr]V) []rpc.Addr {
	out := make([]rpc.Addr, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}
