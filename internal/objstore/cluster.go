package objstore

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Profile describes a simulated object-store deployment: node count,
// replication, per-link network models, and per-node service costs. The
// benchmark harness uses one profile for Ceph-RADOS-like storage and one for
// S3-like storage (see profiles.go).
type Profile struct {
	Name           string
	Nodes          int
	Replicas       int           // total copies including the primary
	WorkersPerNode int           // slots per node: verbs served at once as primary, and replica copies apart
	ClientNet      sim.NetModel  // client <-> storage node
	ReplNet        sim.NetModel  // node <-> node replication traffic
	OpOverhead     time.Duration // per-request software overhead at a node
	DiskBandwidth  int64         // bytes/s of the node's media
	MaxObjectSize  int64         // largest single object the backend accepts
	// SizeOnly discards every payload, recording sizes only (benchmarks
	// whose reads never parse data). SizeOnlyPrefix discards only keys with
	// the given prefix — e.g. "d:" keeps metadata objects (inodes, dentries,
	// journals) intact while bulky file data is represented by size alone.
	// Reads of a discarded object synthesize a zero payload with a valid
	// CRC32C trailer (wire.Seal framing), so integrity-verifying readers
	// accept it instead of flagging phantom corruption.
	SizeOnly       bool
	SizeOnlyPrefix string
}

// discards reports whether the payload of key is dropped at the nodes.
func (p Profile) discards(key string) bool {
	return p.SizeOnly || (p.SizeOnlyPrefix != "" && hasPrefix(key, p.SizeOnlyPrefix))
}

// Stats counts cluster traffic; all fields are updated atomically.
type Stats struct {
	Puts, Gets, Deletes, Lists, Heads atomic.Int64
	BytesIn, BytesOut                 atomic.Int64
}

// Cluster is a simulated distributed object store: a set of storage nodes,
// each a number of slots, with rendezvous-hash placement and synchronous
// primary-copy replication. It implements Store; every call charges
// simulated network and service time against the environment's clock. A verb
// runs on its caller's goroutine once it holds a slot at the key's primary,
// and a replica's copy or a List's scan runs on a short-lived worker, so a
// cluster starts no goroutine of its own.
type Cluster struct {
	env    sim.Env
	prof   Profile
	nodes  []*node
	stats  Stats
	closed atomic.Bool

	framesMu   sync.Mutex
	frames     map[int64][]byte // syntheticFrame's, by size
	frameBytes int64            // their total size, at most frameBudget
}

type opKind byte

const (
	opPut opKind = iota
	opDelete
	opList
)

// A job is work a node does on a worker rather than on its caller's
// goroutine: a replica's copy of a put or a delete, or a List's scan. Its
// answer, the keys a scan found or a copy's nil, goes to done. A job with no
// done stands for a verb parked on its node's turn channel.
type job struct {
	op   opKind
	key  string // a list's prefix
	data []byte
	size int64
	done *sim.Chan[[]string]
}

type objVal struct {
	size int64
	data []byte // nil when the cluster is SizeOnly
}

// slots are one side of a node: how many of its slots are free and, in
// arrival order, the jobs and parked verbs waiting for one.
type slots struct {
	free int
	wait []job
}

type node struct {
	id       int
	idDigits string // id in decimal: its part of every placement hash
	mu       sync.Mutex
	data     map[string]objVal
	prim     slots               // verbs for which the node is primary, and List scans
	repl     slots               // replica copies (slots apart from prim: no cyclic waits)
	turn     *sim.Chan[struct{}] // where a verb waiting for a prim slot parks
}

// NewCluster builds a cluster in env. Callers should Close it (or shut the
// environment down) when finished.
func NewCluster(env sim.Env, prof Profile) *Cluster {
	if prof.Nodes <= 0 {
		prof.Nodes = 1
	}
	if prof.Replicas <= 0 {
		prof.Replicas = 1
	}
	if prof.Replicas > prof.Nodes {
		prof.Replicas = prof.Nodes
	}
	if prof.WorkersPerNode <= 0 {
		prof.WorkersPerNode = 1
	}
	if prof.MaxObjectSize <= 0 {
		prof.MaxObjectSize = 64 << 20
	}
	c := &Cluster{env: env, prof: prof, frames: make(map[int64][]byte)}
	for i := 0; i < prof.Nodes; i++ {
		c.nodes = append(c.nodes, &node{
			id:       i,
			idDigits: strconv.Itoa(i),
			data:     make(map[string]objVal),
			prim:     slots{free: prof.WorkersPerNode},
			repl:     slots{free: prof.WorkersPerNode},
			turn:     sim.NewChan[struct{}](env),
		})
	}
	return c
}

// Close fails every verb waiting for a slot, and every later call, with
// ErrIO. Verbs already in a slot, and the copies and scans they sent, finish.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, n := range c.nodes {
		n.turn.Close()
	}
}

// Stat returns the cluster's traffic counters.
func (c *Cluster) Stat() *Stats { return &c.stats }

// Profile returns the cluster's configuration.
func (c *Cluster) Profile() Profile { return c.prof }

// FNV-1a, 64-bit (hash/fnv's New64a), inlined so placement needs no hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// placement returns the replica set for key, primary first, by rendezvous
// (highest-random-weight) hashing: node n scores FNV-1a of "key|n" (n in
// decimal), and the Replicas highest scores win, a tie going to the lower
// node id. This spreads keys evenly and keeps placement stable as the cluster
// definition changes. The key and the bar are hashed once; each node then
// continues that state with its own digits, and the winners are kept by
// insertion, so the one allocation is the returned slice.
func (c *Cluster) placement(key string) []*node {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * fnvPrime64
	}
	h = (h ^ '|') * fnvPrime64
	out := make([]*node, c.prof.Replicas)
	var buf [8]uint64
	scores := buf[:0]
	if len(out) > len(buf) {
		scores = make([]uint64, 0, len(out))
	}
	for _, n := range c.nodes {
		s := h
		for i := 0; i < len(n.idDigits); i++ {
			s = (s ^ uint64(n.idDigits[i])) * fnvPrime64
		}
		// Insert n behind every kept score at least as high as its own.
		j := len(scores)
		if j == len(out) {
			if s <= scores[j-1] {
				continue
			}
			j-- // n displaces the lowest kept score
		} else {
			scores = scores[:j+1]
		}
		for ; j > 0 && scores[j-1] < s; j-- {
			scores[j], out[j] = scores[j-1], out[j-1]
		}
		scores[j], out[j] = s, n
	}
	return out
}

// syntheticFrame stands in for a discarded payload: zeros of the stored size
// whose trailing 4 bytes are a valid CRC32C trailer over the rest (wire.Seal
// framing). Every persisted ArkFS record is sealed, so a size-only read must
// still verify — the bytes are fake, but the framing is honest. Objects too
// small to carry a trailer are returned as plain zeros. A frame depends on
// the size alone and is lent like any stored value, so each size's is made
// once and shared by every read of it, until frameBudget bytes of frames are
// kept; past that a read makes one of its own.
func (c *Cluster) syntheticFrame(size int64) []byte {
	c.framesMu.Lock()
	defer c.framesMu.Unlock()
	if f, ok := c.frames[size]; ok {
		return f
	}
	frame := make([]byte, size)
	if size >= wire.TrailerSize {
		wire.Seal(frame[:size-wire.TrailerSize]) // in place: the frame has room
	}
	if c.frameBytes+size <= frameBudget {
		c.frames[size] = frame
		c.frameBytes += size
	}
	return frame
}

// frameBudget bounds the bytes of synthetic frames a cluster keeps: a
// workload of many object sizes would otherwise keep a frame of each.
const frameBudget = 64 << 20

// serviceTime is the node-side cost of touching size bytes of media.
func (c *Cluster) serviceTime(size int64) time.Duration {
	d := c.prof.OpOverhead
	if c.prof.DiskBandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / float64(c.prof.DiskBandwidth) * float64(time.Second))
	}
	return d
}

// enter sends a request of wire bytes to key's primary and takes one of its
// slots. A verb that finds a slot free yields once before it runs; one that
// waits is handed its slot and runs at once (the order rules, DESIGN.md §3).
func (c *Cluster) enter(key string, wire int64) ([]*node, error) {
	if c.closed.Load() {
		return nil, fmt.Errorf("objstore: cluster closed: %w", types.ErrIO)
	}
	replicas := c.placement(key)
	c.env.Sleep(c.prof.ClientNet.TransferTime(wire)) // request propagation
	n := replicas[0]
	n.mu.Lock()
	if n.prim.free > 0 {
		n.prim.free--
		n.mu.Unlock()
		c.env.Yield()
		return replicas, nil
	}
	n.prim.wait = append(n.prim.wait, job{})
	n.mu.Unlock()
	if _, ok := n.turn.Recv(); !ok {
		return nil, fmt.Errorf("objstore: cluster closed mid-call: %w", types.ErrIO)
	}
	return replicas, nil
}

// leave gives n's slot to whatever waits for it, yields, and sends back a
// response of wire bytes.
func (c *Cluster) leave(n *node, wire int64) {
	if j, ok := n.next(&n.prim); ok {
		// A scan waits: its worker starts as the service time it is owed ends.
		c.env.After(c.serviceTime(0), func() { c.work(n, &n.prim, j) })
	}
	c.env.Yield()
	c.env.Sleep(c.prof.ClientNet.TransferTime(wire))
}

// next passes a slot of s on to the first in line. A parked verb gets it and
// runs before every other runnable goroutine. A job is returned for the
// caller to serve. With nobody waiting, the slot is free again.
func (n *node) next(s *slots) (job, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for len(s.wait) > 0 {
		j := s.wait[0]
		s.wait[0] = job{}
		s.wait = s.wait[1:]
		if j.done != nil {
			return j, true
		}
		if n.turn.SendNext(struct{}{}) { // false: Close failed the verb
			return job{}, false
		}
	}
	s.free++
	return job{}, false
}

// send gives j to one of s's slots at n: a free slot starts a worker for it,
// and a busy node queues it.
func (c *Cluster) send(n *node, s *slots, j job) {
	n.mu.Lock()
	if s.free > 0 {
		s.free--
		n.mu.Unlock()
		c.env.Go(func() {
			c.env.Sleep(c.serviceTime(j.size))
			c.work(n, s, j)
		})
		return
	}
	s.wait = append(s.wait, j)
	n.mu.Unlock()
}

// work finishes j, whose service time has passed, on a worker in one of s's
// slots at n. It then serves, in the same turn, each job queued behind it,
// and exits once the slot has gone to a parked verb or is free.
func (c *Cluster) work(n *node, s *slots, j job) {
	for {
		j.done.Send(n.apply(j))
		var ok bool
		if j, ok = n.next(s); !ok {
			return
		}
		c.env.Sleep(c.serviceTime(j.size))
	}
}

// apply stores, deletes or scans for j's key at n.
func (n *node) apply(j job) (keys []string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch j.op {
	case opPut:
		n.data[j.key] = objVal{size: j.size, data: j.data}
	case opDelete:
		delete(n.data, j.key)
	case opList:
		for k := range n.data {
			if hasPrefix(k, j.key) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

func (n *node) lookup(key string) (objVal, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	val, ok := n.data[key]
	return val, ok
}

// mutate applies j, a put or a delete, at its key's primary and then at every
// other replica, and waits for all acknowledgements (synchronous
// primary-copy replication, as RADOS does).
func (c *Cluster) mutate(j job) error {
	replicas, err := c.enter(j.key, j.size)
	if err != nil {
		return err
	}
	n := replicas[0]
	c.env.Sleep(c.serviceTime(j.size))
	n.apply(j)
	if len(replicas) > 1 {
		j.done = sim.NewChan[[]string](c.env)
		for _, r := range replicas[1:] {
			c.env.Sleep(c.prof.ReplNet.TransferTime(j.size)) // serialize onto the wire
			c.send(r, &r.repl, j)
		}
		for range replicas[1:] {
			if _, ok := j.done.Recv(); !ok && err == nil {
				err = fmt.Errorf("objstore: environment shut down during replication: %w", types.ErrIO)
			}
		}
	}
	c.leave(n, 0)
	return err
}

// Put implements Store.
func (c *Cluster) Put(key string, data []byte) error {
	if int64(len(data)) > c.prof.MaxObjectSize {
		return fmt.Errorf("objstore: object %q size %d exceeds max %d: %w",
			key, len(data), c.prof.MaxObjectSize, types.ErrInval)
	}
	c.stats.Puts.Add(1)
	c.stats.BytesIn.Add(int64(len(data)))
	var stored []byte
	if !c.prof.discards(key) {
		stored = owned(data)
	}
	return c.mutate(job{op: opPut, key: key, data: stored, size: int64(len(data))})
}

// Get implements Store: it lends the primary's stored value.
func (c *Cluster) Get(key string) ([]byte, error) {
	c.stats.Gets.Add(1)
	replicas, err := c.enter(key, 0)
	if err != nil {
		return nil, err
	}
	n := replicas[0]
	val, ok := n.lookup(key)
	if !ok {
		c.leave(n, 0)
		return nil, fmt.Errorf("get %q: %w", key, ErrNotExist)
	}
	c.env.Sleep(c.serviceTime(val.size))
	c.leave(n, val.size)
	c.stats.BytesOut.Add(val.size)
	if c.prof.discards(key) {
		return c.syntheticFrame(val.size), nil
	}
	return val.data, nil
}

// GetRange implements Store.
func (c *Cluster) GetRange(key string, off, n int64) ([]byte, error) {
	c.stats.Gets.Add(1)
	replicas, err := c.enter(key, 0)
	if err != nil {
		return nil, err
	}
	p := replicas[0]
	val, ok := p.lookup(key)
	if !ok {
		c.leave(p, 0)
		return nil, fmt.Errorf("getrange %q: %w", key, ErrNotExist)
	}
	// Clip the window to the object size.
	win := n
	if off >= val.size {
		win = 0
	} else if off+win > val.size {
		win = val.size - off
	}
	c.env.Sleep(c.serviceTime(win))
	c.leave(p, win)
	c.stats.BytesOut.Add(win)
	if c.prof.discards(key) {
		return clipRange(c.syntheticFrame(val.size), off, n), nil
	}
	return clipRange(val.data, off, n), nil
}

// Delete implements Store.
func (c *Cluster) Delete(key string) error {
	c.stats.Deletes.Add(1)
	return c.mutate(job{op: opDelete, key: key})
}

// Head implements Store.
func (c *Cluster) Head(key string) (int64, error) {
	c.stats.Heads.Add(1)
	replicas, err := c.enter(key, 0)
	if err != nil {
		return 0, err
	}
	n := replicas[0]
	c.env.Sleep(c.serviceTime(0))
	val, ok := n.lookup(key)
	c.leave(n, 0)
	if !ok {
		return 0, fmt.Errorf("head %q: %w", key, ErrNotExist)
	}
	return val.size, nil
}

// List implements Store. It fans out to every node (keys live on their
// replica sets) and merges, deduplicates, and sorts the result.
func (c *Cluster) List(prefix string) ([]string, error) {
	c.stats.Lists.Add(1)
	if c.closed.Load() {
		return nil, fmt.Errorf("objstore: cluster closed: %w", types.ErrIO)
	}
	done := sim.NewChan[[]string](c.env)
	c.env.Sleep(c.prof.ClientNet.TransferTime(0))
	for _, n := range c.nodes {
		c.send(n, &n.prim, job{op: opList, key: prefix, done: done})
	}
	seen := map[string]bool{}
	for range c.nodes {
		keys, ok := done.Recv()
		if !ok {
			return nil, fmt.Errorf("objstore: environment shut down mid-list: %w", types.ErrIO)
		}
		for _, k := range keys {
			seen[k] = true
		}
	}
	c.env.Sleep(c.prof.ClientNet.TransferTime(0))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}
