// Package cephsim implements a CephFS-like baseline: a POSIX namespace
// served by a centralized metadata-server (MDS) cluster over the same object
// store ArkFS uses. It reproduces the architectural properties the paper
// measures against:
//
//   - every metadata operation is a client→MDS round trip;
//   - a single MDS serializes all requests (service time + load-dependent
//     lock contention), collapsing beyond a handful of clients (Fig. 1);
//   - multiple MDSs partition directories by hash, but dynamic subtree
//     partitioning makes a fraction of operations take a slow path through
//     shared balancer coordination, capping the speedup well below linear
//     (the paper observed ≤3.24× from 16 MDSs);
//   - file data flows through a client-side write-back page cache with
//     sequential read-ahead (8 MiB for the kernel mount, 128 KiB for the
//     FUSE mount), persisted as objects;
//   - the FUSE mount additionally pays a per-request context-switch cost.
package cephsim

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// ClusterOptions configures the MDS cluster.
type ClusterOptions struct {
	// Name prefixes the MDS RPC addresses (so several clusters can share a
	// network in one experiment).
	Name string
	// NumMDS is the metadata server count (the paper uses 1 and 16).
	NumMDS int
	// ServiceTime is the base cost of one metadata operation at an MDS.
	ServiceTime time.Duration
	// ContentionFactor grows the effective service time with queue depth,
	// modelling MDS lock contention: s_eff = s * (1 + f * queued).
	ContentionFactor float64
	// SlowPathProb is the probability that an operation on a multi-MDS
	// cluster takes the dynamic-subtree-partitioning slow path (forwarding /
	// balancer coordination), serialized through one shared coordinator.
	SlowPathProb float64
	// SlowPathCost is the coordinator's serialized cost per slow-path op.
	SlowPathCost time.Duration
	// DeleteSlowProb/DeleteSlowCost override the slow path for DELETEs,
	// which the paper observed regressing with 16 MDSs (subtree migration
	// of emptied directories).
	DeleteSlowProb float64
	DeleteSlowCost time.Duration
	// Workers is the per-MDS concurrency (MDS request handler threads).
	Workers int
}

// DefaultClusterOptions returns the calibration used by the harness.
func DefaultClusterOptions(name string, numMDS int) ClusterOptions {
	return ClusterOptions{
		Name:             name,
		NumMDS:           numMDS,
		ServiceTime:      55 * time.Microsecond,
		ContentionFactor: 0.006,
		SlowPathProb:     0.22,
		SlowPathCost:     90 * time.Microsecond,
		DeleteSlowProb:   0.50,
		DeleteSlowCost:   260 * time.Microsecond,
		Workers:          2,
	}
}

// namespace is the shared file-system tree. MDS authority partitions write
// access by directory; the Go mutex only guards the in-memory maps (the
// simulated cost is charged separately).
type namespace struct {
	mu     sync.Mutex
	inodes map[types.Ino]*types.Inode
	dirs   map[types.Ino]map[string]wire.Dentry
}

// Cluster is the MDS cluster plus the shared namespace.
type Cluster struct {
	env  sim.Env
	net  *rpc.Network
	tr   *prt.Translator
	opts ClusterOptions
	ns   *namespace

	servers []*rpc.Server
	coord   *rpc.Server // the slow-path coordinator (balancer)
	inoSrc  *types.InoSource
	// inFlight counts client requests issued and not yet answered — the
	// MDS-visible load that drives lock contention (queued requests hold
	// session locks and inflate every handler's critical sections).
	inFlight atomic.Int64
}

// NewCluster starts the MDS cluster and creates the root directory.
func NewCluster(net *rpc.Network, tr *prt.Translator, opts ClusterOptions) *Cluster {
	if opts.NumMDS <= 0 {
		opts.NumMDS = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Name == "" {
		opts.Name = "ceph"
	}
	c := &Cluster{
		env:  net.Env(),
		net:  net,
		tr:   tr,
		opts: opts,
		ns: &namespace{
			inodes: make(map[types.Ino]*types.Inode),
			dirs:   make(map[types.Ino]map[string]wire.Dentry),
		},
		inoSrc: types.NewInoSource(0xCE9),
	}
	c.ns.inodes[types.RootIno] = &types.Inode{
		Ino: types.RootIno, Type: types.TypeDir, Mode: 0777, Nlink: 2,
	}
	c.ns.dirs[types.RootIno] = make(map[string]wire.Dentry)
	for i := 0; i < opts.NumMDS; i++ {
		i := i
		srv := net.Listen(c.mdsAddr(i), opts.Workers, func(req any) any {
			return c.serveMDS(i, req)
		})
		c.servers = append(c.servers, srv)
	}
	// The balancer/coordinator: strictly one worker — this is the shared
	// serialization point of dynamic subtree partitioning.
	c.coord = net.Listen(rpc.Addr(opts.Name+"-balancer"), 1, func(req any) any {
		c.env.Sleep(req.(coordReq).cost)
		return struct{}{}
	})
	return c
}

// Close stops the MDS servers.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Close()
	}
	c.coord.Close()
}

func (c *Cluster) mdsAddr(i int) rpc.Addr {
	return rpc.Addr(fmt.Sprintf("%s-mds-%d", c.opts.Name, i))
}

// authority maps a directory to its authoritative MDS.
func (c *Cluster) authority(dir types.Ino) int {
	if c.opts.NumMDS == 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write(dir[:])
	return int(h.Sum64() % uint64(c.opts.NumMDS))
}

type coordReq struct{ cost time.Duration }

// mdsOp is the request envelope for every MDS operation.
type mdsOp struct {
	Kind    opKind
	Dir     types.Ino
	Name    string
	NewName string
	Dir2    types.Ino // rename destination directory
	Mode    types.Mode
	FType   types.FileType
	Cred    types.Cred
	Patch   patch
	Seq     uint64 // deterministic slow-path sampling
}

type patch struct {
	SetSize  bool
	Size     int64
	SetTimes bool
	Mtime    time.Duration
}

type opKind int

const (
	opLookup opKind = iota
	opCreate
	opMkdir
	opUnlink
	opRmdir
	opStat
	opSetAttr
	opReaddir
	opRename
)

// mdsResp is the reply envelope.
type mdsResp struct {
	Err     string
	Inode   *types.Inode
	Entries []wire.Dentry
}

// serveMDS handles one request at MDS i: charge the (contended) service
// time, take the slow path when sampled, then apply to the namespace.
func (c *Cluster) serveMDS(i int, req any) any {
	op, ok := req.(mdsOp)
	if !ok {
		return mdsResp{Err: "EINVAL"}
	}
	depth := float64(c.inFlight.Load()) / float64(c.opts.NumMDS)
	svc := time.Duration(float64(c.opts.ServiceTime) * (1 + c.opts.ContentionFactor*depth))
	c.env.Sleep(svc)

	if c.opts.NumMDS > 1 {
		prob, cost := c.opts.SlowPathProb, c.opts.SlowPathCost
		if op.Kind == opUnlink || op.Kind == opRmdir {
			prob, cost = c.opts.DeleteSlowProb, c.opts.DeleteSlowCost
		}
		// Deterministic sampling on a hash of the op sequence number (the
		// raw sequence is far from uniform for short runs).
		mixed := (op.Seq*0x9E3779B97F4A7C15 ^ uint64(op.Dir.Lo())) >> 33
		if prob > 0 && float64(mixed%1000) < prob*1000 {
			_, _ = c.net.Call(rpc.Addr(c.opts.Name+"-balancer"), coordReq{cost: cost})
		}
	}
	return c.apply(op)
}

// apply performs the namespace mutation.
func (c *Cluster) apply(op mdsOp) mdsResp {
	ns := c.ns
	ns.mu.Lock()
	defer ns.mu.Unlock()
	now := c.env.Now()

	dirEnts, ok := ns.dirs[op.Dir]
	if !ok && op.Kind != opStat {
		return mdsResp{Err: "ENOENT"}
	}
	switch op.Kind {
	case opLookup, opStat:
		if op.Name == "" {
			n, ok := ns.inodes[op.Dir]
			if !ok {
				return mdsResp{Err: "ENOENT"}
			}
			return mdsResp{Inode: n.Clone()}
		}
		de, ok := dirEnts[op.Name]
		if !ok {
			return mdsResp{Err: "ENOENT"}
		}
		return mdsResp{Inode: ns.inodes[de.Ino].Clone()}

	case opCreate, opMkdir:
		if de, exists := dirEnts[op.Name]; exists {
			if op.Kind == opMkdir {
				return mdsResp{Err: "EEXIST"}
			}
			return mdsResp{Inode: ns.inodes[de.Ino].Clone()}
		}
		dirNode := ns.inodes[op.Dir]
		if err := dirNode.Access(op.Cred, types.MayWrite|types.MayExec); err != nil {
			return mdsResp{Err: types.Errno(err)}
		}
		child := &types.Inode{
			Ino: c.nextIno(), Type: op.FType, Mode: op.Mode & 07777,
			Uid: op.Cred.Uid, Gid: op.Cred.Gid, Nlink: 1,
			Mtime: now, Ctime: now,
		}
		if op.FType == types.TypeDir {
			child.Nlink = 2
			ns.dirs[child.Ino] = make(map[string]wire.Dentry)
		}
		ns.inodes[child.Ino] = child
		dirEnts[op.Name] = wire.Dentry{Name: op.Name, Ino: child.Ino, Type: child.Type}
		dirNode.Mtime = now
		return mdsResp{Inode: child.Clone()}

	case opUnlink, opRmdir:
		de, ok := dirEnts[op.Name]
		if !ok {
			return mdsResp{Err: "ENOENT"}
		}
		victim := ns.inodes[de.Ino]
		if op.Kind == opRmdir {
			if !victim.IsDir() {
				return mdsResp{Err: "ENOTDIR"}
			}
			if len(ns.dirs[de.Ino]) > 0 {
				return mdsResp{Err: "ENOTEMPTY"}
			}
			delete(ns.dirs, de.Ino)
		} else if victim.IsDir() {
			return mdsResp{Err: "EISDIR"}
		}
		delete(dirEnts, op.Name)
		delete(ns.inodes, de.Ino)
		return mdsResp{Inode: victim}

	case opSetAttr:
		var node *types.Inode
		if op.Name == "" {
			node = ns.inodes[op.Dir]
		} else {
			de, ok := dirEnts[op.Name]
			if !ok {
				return mdsResp{Err: "ENOENT"}
			}
			node = ns.inodes[de.Ino]
		}
		if node == nil {
			return mdsResp{Err: "ENOENT"}
		}
		if op.Patch.SetSize {
			node.Size = op.Patch.Size
		}
		if op.Patch.SetTimes {
			node.Mtime = op.Patch.Mtime
		}
		node.Ctime = now
		return mdsResp{Inode: node.Clone()}

	case opReaddir:
		out := make([]wire.Dentry, 0, len(dirEnts))
		for _, de := range dirEnts {
			out = append(out, de)
		}
		return mdsResp{Entries: out}

	case opRename:
		de, ok := dirEnts[op.Name]
		if !ok {
			return mdsResp{Err: "ENOENT"}
		}
		dstEnts, ok := ns.dirs[op.Dir2]
		if !ok {
			return mdsResp{Err: "ENOENT"}
		}
		if old, exists := dstEnts[op.NewName]; exists {
			delete(ns.inodes, old.Ino)
		}
		delete(dirEnts, op.Name)
		de.Name = op.NewName
		dstEnts[op.NewName] = de
		return mdsResp{Inode: ns.inodes[de.Ino].Clone()}
	default:
		return mdsResp{Err: "EINVAL"}
	}
}

func (c *Cluster) nextIno() types.Ino { return c.inoSrc.Next() }
