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
	WorkersPerNode int           // primary-request concurrency per node
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

// Cluster is a simulated distributed object store: a set of storage nodes
// with worker loops, rendezvous-hash placement, and synchronous primary-copy
// replication. It implements Store; every call charges simulated network and
// service time against the environment's clock.
type Cluster struct {
	env    sim.Env
	prof   Profile
	nodes  []*node
	stats  Stats
	closed atomic.Bool

	trailerMu sync.Mutex
	trailers  map[int64][wire.TrailerSize]byte // syntheticFrame's, by frame size

	freeMu sync.Mutex
	free   []*sim.Chan[nodeResp] // reply channels whose answers have all arrived
}

type opKind byte

const (
	opPut opKind = iota
	opGet
	opGetRange
	opDelete
	opList
	opHead
	opReplPut
	opReplDelete
)

type nodeReq struct {
	op       opKind
	key      string
	data     []byte
	size     int64
	off, len int64   // opGetRange window
	replicas []*node // key's placement, primary first (client requests)
	reply    *sim.Chan[nodeResp]
}

type nodeResp struct {
	data []byte
	size int64
	keys []string
	err  error
}

type objVal struct {
	size int64
	data []byte // nil when the cluster is SizeOnly
}

type node struct {
	id        int
	idDigits  string              // id in decimal: its part of every placement hash
	inbox     *sim.Chan[*nodeReq] // primary requests
	replInbox *sim.Chan[*nodeReq] // replication requests (separate workers: no cyclic waits)
	mu        sync.Mutex
	data      map[string]objVal
}

// NewCluster builds and starts a cluster in env. Callers should Close it (or
// shut the environment down) when finished.
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
	c := &Cluster{env: env, prof: prof, trailers: make(map[int64][wire.TrailerSize]byte)}
	for i := 0; i < prof.Nodes; i++ {
		n := &node{
			id:        i,
			idDigits:  strconv.Itoa(i),
			inbox:     sim.NewChan[*nodeReq](env),
			replInbox: sim.NewChan[*nodeReq](env),
			data:      make(map[string]objVal),
		}
		c.nodes = append(c.nodes, n)
		for w := 0; w < prof.WorkersPerNode; w++ {
			env.Go(func() { c.serve(n, n.inbox) })
		}
		for w := 0; w < prof.WorkersPerNode; w++ {
			env.Go(func() { c.serve(n, n.replInbox) })
		}
	}
	return c
}

// Close stops all node workers.
func (c *Cluster) Close() {
	if c.closed.Swap(true) {
		return
	}
	for _, n := range c.nodes {
		n.inbox.Close()
		n.replInbox.Close()
	}
}

// Stats returns the cluster's traffic counters.
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

// replyChan takes a reply channel from the free list, or makes one.
func (c *Cluster) replyChan() *sim.Chan[nodeResp] {
	c.freeMu.Lock()
	defer c.freeMu.Unlock()
	k := len(c.free) - 1
	if k < 0 {
		return sim.NewChan[nodeResp](c.env)
	}
	ch := c.free[k]
	c.free[k] = nil
	c.free = c.free[:k]
	return ch
}

// freeReply returns a reply channel to the free list. Only a channel whose
// every answer has been received may come back: one abandoned when the
// cluster or the environment shut down mid-call may still get a late answer,
// which would reach its next user.
func (c *Cluster) freeReply(ch *sim.Chan[nodeResp]) {
	c.freeMu.Lock()
	c.free = append(c.free, ch)
	c.freeMu.Unlock()
}

// syntheticFrame stands in for a discarded payload: zeros of the stored size
// whose trailing 4 bytes are a valid CRC32C trailer over the rest (wire.Seal
// framing). Every persisted ArkFS record is sealed, so a size-only read must
// still verify — the bytes are fake, but the framing is honest. Objects too
// small to carry a trailer are returned as plain zeros. The trailer depends
// on the size alone, so each size's is computed once; the frame is made
// afresh every time, as callers write into the chunks they fetch.
func (c *Cluster) syntheticFrame(size int64) []byte {
	frame := make([]byte, size)
	if size < wire.TrailerSize {
		return frame
	}
	tail := frame[size-wire.TrailerSize:]
	c.trailerMu.Lock()
	defer c.trailerMu.Unlock()
	if t, ok := c.trailers[size]; ok {
		copy(tail, t[:])
	} else {
		wire.Seal(frame[:size-wire.TrailerSize]) // in place: the frame has room
		c.trailers[size] = [wire.TrailerSize]byte(tail)
	}
	return frame
}

// serviceTime is the node-side cost of touching size bytes of media.
func (c *Cluster) serviceTime(size int64) time.Duration {
	d := c.prof.OpOverhead
	if c.prof.DiskBandwidth > 0 && size > 0 {
		d += time.Duration(float64(size) / float64(c.prof.DiskBandwidth) * float64(time.Second))
	}
	return d
}

// serve is a node worker loop.
func (c *Cluster) serve(n *node, inbox *sim.Chan[*nodeReq]) {
	for {
		req, ok := inbox.Recv()
		if !ok {
			return
		}
		var resp nodeResp
		switch req.op {
		case opPut, opReplPut:
			c.env.Sleep(c.serviceTime(req.size))
			val := objVal{size: req.size}
			if !c.prof.discards(req.key) {
				val.data = req.data
			}
			n.mu.Lock()
			n.data[req.key] = val
			n.mu.Unlock()
			if req.op == opPut {
				resp.err = c.replicate(req.replicas[1:], opReplPut, req.key, req.data, req.size)
			}
		case opGet:
			n.mu.Lock()
			val, exists := n.data[req.key]
			n.mu.Unlock()
			if !exists {
				resp.err = fmt.Errorf("get %q: %w", req.key, ErrNotExist)
				break
			}
			c.env.Sleep(c.serviceTime(val.size))
			resp.size = val.size
			if c.prof.discards(req.key) {
				resp.data = c.syntheticFrame(val.size)
			} else {
				resp.data = val.data
			}
		case opGetRange:
			n.mu.Lock()
			val, exists := n.data[req.key]
			n.mu.Unlock()
			if !exists {
				resp.err = fmt.Errorf("getrange %q: %w", req.key, ErrNotExist)
				break
			}
			// Clip the window to the object size.
			win := req.len
			if req.off >= val.size {
				win = 0
			} else if req.off+win > val.size {
				win = val.size - req.off
			}
			c.env.Sleep(c.serviceTime(win))
			resp.size = win
			if c.prof.discards(req.key) {
				resp.data = clipRange(c.syntheticFrame(val.size), req.off, req.len)
			} else {
				resp.data = clipRange(val.data, req.off, req.len)
			}
		case opDelete, opReplDelete:
			c.env.Sleep(c.serviceTime(0))
			n.mu.Lock()
			delete(n.data, req.key)
			n.mu.Unlock()
			if req.op == opDelete {
				resp.err = c.replicate(req.replicas[1:], opReplDelete, req.key, nil, 0)
			}
		case opHead:
			c.env.Sleep(c.serviceTime(0))
			n.mu.Lock()
			val, exists := n.data[req.key]
			n.mu.Unlock()
			if !exists {
				resp.err = fmt.Errorf("head %q: %w", req.key, ErrNotExist)
			} else {
				resp.size = val.size
			}
		case opList:
			c.env.Sleep(c.serviceTime(0))
			n.mu.Lock()
			for k := range n.data {
				if hasPrefix(k, req.key) {
					resp.keys = append(resp.keys, k)
				}
			}
			n.mu.Unlock()
		}
		req.reply.Send(resp)
	}
}

// replicate forwards a mutation from the primary to the other replicas and
// waits for all acknowledgements (synchronous primary-copy replication, as
// RADOS does).
func (c *Cluster) replicate(replicas []*node, op opKind, key string, data []byte, size int64) error {
	if len(replicas) == 0 {
		return nil
	}
	reply := c.replyChan()
	for _, r := range replicas {
		c.env.Sleep(c.prof.ReplNet.TransferTime(size)) // serialize onto the wire
		r.replInbox.Send(&nodeReq{op: op, key: key, data: data, size: size, reply: reply})
	}
	var firstErr error
	for range replicas {
		resp, ok := reply.Recv()
		if !ok {
			return fmt.Errorf("objstore: cluster closed during replication: %w", types.ErrIO)
		}
		if resp.err != nil && firstErr == nil {
			firstErr = resp.err
		}
	}
	c.freeReply(reply)
	return firstErr
}

// call performs one client-side request against the primary for key.
func (c *Cluster) call(req *nodeReq, sendSize, recvResp bool) (nodeResp, error) {
	if c.closed.Load() {
		return nodeResp{}, fmt.Errorf("objstore: cluster closed: %w", types.ErrIO)
	}
	req.replicas = c.placement(req.key)
	wire := int64(0)
	if sendSize {
		wire = req.size
	}
	c.env.Sleep(c.prof.ClientNet.TransferTime(wire)) // request propagation
	req.reply = c.replyChan()
	req.replicas[0].inbox.Send(req)
	resp, ok := req.reply.Recv()
	if !ok {
		return nodeResp{}, fmt.Errorf("objstore: cluster closed mid-call: %w", types.ErrIO)
	}
	c.freeReply(req.reply)
	if recvResp {
		c.env.Sleep(c.prof.ClientNet.TransferTime(resp.size)) // response payload
	} else {
		c.env.Sleep(c.prof.ClientNet.TransferTime(0)) // bare acknowledgement
	}
	return resp, resp.err
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
		stored = append([]byte(nil), data...)
	}
	_, err := c.call(&nodeReq{op: opPut, key: key, data: stored, size: int64(len(data))}, true, false)
	return err
}

// Get implements Store.
func (c *Cluster) Get(key string) ([]byte, error) {
	c.stats.Gets.Add(1)
	resp, err := c.call(&nodeReq{op: opGet, key: key}, false, true)
	if err != nil {
		return nil, err
	}
	c.stats.BytesOut.Add(resp.size)
	if c.prof.discards(key) {
		return resp.data, nil
	}
	return append([]byte(nil), resp.data...), nil
}

// GetRange implements Store.
func (c *Cluster) GetRange(key string, off, n int64) ([]byte, error) {
	c.stats.Gets.Add(1)
	resp, err := c.call(&nodeReq{op: opGetRange, key: key, off: off, len: n}, false, true)
	if err != nil {
		return nil, err
	}
	c.stats.BytesOut.Add(resp.size)
	if c.prof.discards(key) {
		return resp.data, nil
	}
	return append([]byte(nil), resp.data...), nil
}

// Delete implements Store.
func (c *Cluster) Delete(key string) error {
	c.stats.Deletes.Add(1)
	_, err := c.call(&nodeReq{op: opDelete, key: key}, false, false)
	return err
}

// Head implements Store.
func (c *Cluster) Head(key string) (int64, error) {
	c.stats.Heads.Add(1)
	resp, err := c.call(&nodeReq{op: opHead, key: key}, false, false)
	return resp.size, err
}

// List implements Store. It fans out to every node (keys live on their
// replica sets) and merges, deduplicates, and sorts the result.
func (c *Cluster) List(prefix string) ([]string, error) {
	c.stats.Lists.Add(1)
	if c.closed.Load() {
		return nil, fmt.Errorf("objstore: cluster closed: %w", types.ErrIO)
	}
	reply := c.replyChan()
	c.env.Sleep(c.prof.ClientNet.TransferTime(0))
	for _, n := range c.nodes {
		n.inbox.Send(&nodeReq{op: opList, key: prefix, reply: reply})
	}
	seen := map[string]bool{}
	for range c.nodes {
		resp, ok := reply.Recv()
		if !ok {
			return nil, fmt.Errorf("objstore: cluster closed mid-list: %w", types.ErrIO)
		}
		for _, k := range resp.keys {
			seen[k] = true
		}
	}
	c.freeReply(reply)
	c.env.Sleep(c.prof.ClientNet.TransferTime(0))
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}
