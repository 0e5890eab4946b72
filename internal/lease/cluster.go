package lease

import (
	"fmt"

	"arkfs/internal/objstore"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
)

// Cluster is a static group of lease-manager shards behind one ring, fixed at
// start. Directories map onto shards by rendezvous hashing; each shard is an
// ordinary Manager, so every property of the single-manager protocol (FCFS,
// extension, recovery gating, restart quiesce) holds per directory — a
// directory's entire lease lifecycle lives on the one shard the ring names.
// A shard may crash and restart in place (KillShard, RestartShard); with
// persistence it resumes from its grant-table snapshot.
type Cluster struct {
	net  *rpc.Network
	opts Options
	ring Ring

	mu     *sim.Mutex
	mgrs   map[rpc.Addr]*Manager
	closed bool
}

// ClusterOptions configures a Cluster beyond the per-shard Options.
type ClusterOptions struct {
	// Shards is the shard count (default 1).
	Shards int
	// Store, when non-nil, gives every shard grant-table persistence: each
	// chain mutation is snapshotted (sealed, CRC-trailed) before it is
	// acknowledged, and a restarted shard resumes instead of quiescing.
	Store objstore.Store
	// Manager carries the per-shard options (Period, Workers, Obs, …). Addr,
	// Ring and Store are managed by the cluster.
	Manager Options
}

// NewCluster starts a lease cluster of o.Shards shards.
func NewCluster(net *rpc.Network, o ClusterOptions) *Cluster {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	o.Manager.Store = o.Store
	members := make([]rpc.Addr, o.Shards)
	for i := range members {
		members[i] = rpc.Addr(fmt.Sprintf("leasemgr-%d", i))
	}
	c := &Cluster{
		net:  net,
		opts: o.Manager,
		ring: NewRing(members...),
		mu:   sim.NewMutex(net.Env()),
		mgrs: make(map[rpc.Addr]*Manager),
	}
	for _, a := range members {
		c.mgrs[a] = c.start(a, false)
	}
	return c
}

func (c *Cluster) start(addr rpc.Addr, restarted bool) *Manager {
	mo := c.opts
	mo.Addr = addr
	mo.Ring = c.ring
	mo.Restarted = restarted
	return NewManager(c.net, mo)
}

// Ring returns the cluster's membership; clients route by it.
func (c *Cluster) Ring() Ring { return c.ring }

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
	c.mgrs[addr] = c.start(addr, true)
	return nil
}

// Close stops every shard. It is idempotent.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	for _, a := range c.ring.Members {
		c.mgrs[a].Close()
	}
}
