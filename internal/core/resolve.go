package core

import (
	"context"
	"errors"
	"fmt"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// maxSymlinkDepth bounds symlink chains during resolution (ELOOP).
const maxSymlinkDepth = 8

// resolved is the outcome of a path walk: the parent directory and, when the
// final entry exists, its inode.
type resolved struct {
	parent types.Ino    // inode of the parent directory
	name   string       // final component ("" for the root itself)
	node   *types.Inode // final inode, nil if the entry does not exist
}

// resolvePath walks an absolute path from the root with a lookup and an
// execute-permission check at every component (paper §IV-C). Lookups in
// directories this client leads are local; the rest are answered by the
// permission cache or by the directory's leader, which is sent all the names
// that remain and answers for every consecutive directory it leads, so a path
// costs one round trip per leader on it, not one per component. followLast
// controls symlink resolution of the final component.
func (c *Client) resolvePath(ctx context.Context, path string, followLast bool) (*resolved, error) {
	return c.walk(ctx, path, followLast, 0, nil)
}

// ride is what a call sends along with its walk, for the leader of the
// directory of the path's last name to do there, and what the walk brings back
// (DESIGN.md §5.7). An open lists the client for the data lease of a regular
// file it may open, and grant is then what an OpenResp would have said. A
// create makes the name if it is missing (lookupAt); Open's lists the client
// for the new inode too, and made is the record Open took for it.
type ride struct {
	holder rpc.Addr   // Open: this client, to list for the file's data lease
	write  bool       // the open wants to write
	create *CreateReq // Open with O_CREAT, Mkdir, Symlink
	made   *openFile  // Open with O_CREAT: the record of create.NewIno
	lost   bool       // the last walk message sent got no answer: it may have made the file
	leased bool
	grant  dataGrant
}

// walk is resolvePath; open, if not nil, rides the lookup of the last name.
func (c *Client) walk(ctx context.Context, path string, followLast bool, depth int, open *ride) (*resolved, error) {
	if depth > maxSymlinkDepth {
		return nil, fmt.Errorf("core: %q: %w", path, types.ErrLoop)
	}
	parts, err := types.SplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := types.RootIno
	if len(parts) == 0 {
		node, err := c.statDir(ctx, cur)
		if err != nil {
			return nil, err
		}
		return &resolved{parent: cur, name: "", node: node}, nil
	}

	var curNode *types.Inode // cur's inode as its parent holds it; the root has none
	var ahead []*types.Inode // what a leader answered beyond the name asked for
	var aheadErr error       // and the error that stopped it, for the name after those
	for i, name := range parts {
		// Search permission on the directory being traversed; whoever answers
		// the lookup in the root checks the root.
		if curNode != nil {
			if err := curNode.Access(c.opts.Cred, types.MayExec); err != nil {
				return nil, fmt.Errorf("core: search %q: %w", name, err)
			}
		}
		last := i == len(parts)-1
		var child *types.Inode
		if len(ahead) > 0 {
			child, ahead = ahead[0], ahead[1:]
		} else if aheadErr == nil {
			child, ahead, aheadErr = c.lookup(ctx, cur, parts[i:], open)
		}
		if child == nil {
			if last && isNotExist(aheadErr) {
				// Parent exists; final entry does not — callers like Create
				// need exactly this state.
				return &resolved{parent: cur, name: name}, nil
			}
			return nil, aheadErr
		}
		if child.Type == types.TypeSymlink && (!last || followLast) {
			// Re-walk with the target spliced in.
			rest := types.JoinPath(parts[i+1:])
			target := child.Target
			if len(target) == 0 || target[0] != '/' {
				// Relative target: resolve against the current directory.
				prefix := types.JoinPath(parts[:i])
				target = prefix + "/" + target
			}
			if rest != "/" {
				target = target + rest
			}
			return c.walk(ctx, target, followLast, depth+1, open)
		}
		if last {
			return &resolved{parent: cur, name: name, node: child}, nil
		}
		if !child.IsDir() {
			return nil, fmt.Errorf("core: %q in %q: %w", name, path, types.ErrNotDir)
		}
		cur, curNode = child.Ino, child
	}
	panic("unreachable")
}

// statDir returns a directory's inode: locally if led, from the permission
// cache, or from the leader (caching the answer in pcache mode).
func (c *Client) statDir(ctx context.Context, dir types.Ino) (*types.Inode, error) {
	ld, ok := c.ledDirFor(dir)
	if !ok {
		if node, hit, _ := c.pcacheLookup(dir, ""); hit {
			c.stats.PcacheHits.Add(1)
			return node, nil
		}
		// Acquire (become leader) or ask the remote leader.
		var resp StatResp
		var err error
		if ld, resp, err = forward[StatResp](ctx, c, nil, dir, StatReq{Dir: dir, Cred: c.opts.Cred}); err != nil {
			return nil, err
		}
		if ld == nil {
			node, err := wire.DecodeInode(resp.Inode)
			if err != nil {
				return nil, err
			}
			c.pcachePut(dir, "", node)
			return node, nil
		}
	}
	c.stats.LocalMetaOps.Add(1)
	return ld.table.DirInode(), nil
}

// lookup resolves names[0] within dir. A remote leader is sent all of names
// and answers for as many as it leads the directories of: those inodes are
// ahead, and err, if the first name resolved, belongs to the name after the
// last of them. Unlike the other forwarded operations it treats the leader's
// ENOENT as an answer worth keeping (a negative permission-cache entry), and
// it caches what the answer says of every directory it crossed. With open, the
// leader of the last name's directory may grant the open or make the create
// too: only an answer that resolved every name says so. A negative entry for
// the last name does not answer a create, which the leader has to make.
func (c *Client) lookup(ctx context.Context, dir types.Ino, names []string, open *ride) (child *types.Inode, ahead []*types.Inode, err error) {
	var cr *CreateReq
	if open != nil {
		cr = open.create
	}
	ld, ok := c.ledDirFor(dir)
	if !ok {
		if node, hit, cached := c.pcacheLookup(dir, names[0]); hit && (node != nil || cr == nil || len(names) > 1) {
			c.stats.PcacheHits.Add(1)
			return node, nil, cached
		}
		var resp WalkResp
		var sp *obs.Span
		req := WalkReq{Dir: dir, Names: names, Cred: c.opts.Cred, WantDirInode: c.opts.PermCache, Create: cr}
		if open != nil { // what rides it makes the walk the call's own routing decision
			sp, req.Holder, req.Write = obs.SpanFrom(ctx), open.holder, open.write
			if open.made != nil {
				c.aim(open.made, dir, names)
			}
		}
		ld, resp, err = forward[WalkResp](ctx, c, sp, dir, req)
		if open != nil {
			open.lost = err != nil && resp.Err == ""
			if resp.Leased {
				open.leased, open.grant = true, dataGrant{via: dir, seq: resp.Grant, direct: resp.Direct}
			}
		}
		if c.opts.PermCache && len(resp.DirInode) > 0 {
			if dn, derr := wire.DecodeInode(resp.DirInode); derr == nil {
				c.pcachePut(dir, "", dn)
			}
		}
		if ld == nil {
			ahead = make([]*types.Inode, 0, len(resp.Inodes))
			for i, enc := range resp.Inodes {
				node, derr := wire.DecodeInode(enc)
				if derr != nil {
					return nil, nil, derr
				}
				c.pcachePut(dir, names[i], node)
				ahead, dir = append(ahead, node), node.Ino // the next name is node's
			}
			if err != nil {
				name := names[len(ahead)]
				if resp.Err != "" && isNotExist(err) {
					c.pcachePut(dir, name, nil) // the leader said so: negative entry
				}
				err = fmt.Errorf("core: lookup %q: %w", name, err)
			}
			if len(ahead) == 0 {
				return nil, nil, err
			}
			return ahead[0], ahead[1:], err
		}
	}
	if dir == types.RootIno { // no parent's copy of its inode for walk to have checked
		if err := ld.table.DirInode().Access(c.opts.Cred, types.MayExec); err != nil {
			return nil, nil, fmt.Errorf("core: search %q: %w", names[0], err)
		}
	}
	c.stats.LocalMetaOps.Add(1)
	child, leased, err := c.lookupAt(ctx, ld, dir, names, cr)
	if leased {
		open.leased, open.grant = true, dataGrant{via: dir}
	}
	return child, nil, err
}

// callLeader performs one leader RPC, refreshing the leader address through
// the lease manager once if the cached leader is gone. The context's deadline
// or cancellation is honored at each RPC boundary. Timeouts — a crashed
// leader, a partition, a dropped message — never escape to the workload as
// hard failures from here: they invalidate the cached route and surface as
// ErrStale, so forward re-resolves through the lease manager (with backoff)
// until the operation's attempt budget runs out.
func (c *Client) callLeader(ctx context.Context, leader rpc.Addr, dir types.Ino, req any) (any, error) {
	resp, err := c.net.CallFromCtx(ctx, c.addr, leader, req)
	if err == nil {
		return resp, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		// Cancellation is not a routing problem: fail the operation outright
		// instead of burning the retry budget on a dead context.
		return nil, cerr
	}
	if errors.Is(err, types.ErrAgain) {
		// Typed pushback (inbox bound, queue-wait shed) is not a routing
		// problem either: the leader is alive and asking for backoff.
		// Rediscovering through the lease manager would only add load where
		// the hint asks for less; surface it to forward's budgeted retry.
		return nil, err
	}
	// The leader may have vanished; invalidate and rediscover once.
	c.invalidateLeader(dir)
	ld, newLeader, lerr := c.leaderFor(ctx, dir)
	if lerr != nil {
		return nil, lerr
	}
	if ld != nil {
		// We became the leader ourselves: the caller should retry locally,
		// signalled with ErrStale.
		return nil, fmt.Errorf("core: leadership changed for %s: %w", dir.Short(), types.ErrStale)
	}
	resp, err = c.net.CallFromCtx(ctx, c.addr, newLeader, req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if errors.Is(err, types.ErrAgain) {
			return nil, err // pushback from the rediscovered leader
		}
		// Still unreachable. The lease manager vouched for this leader, so
		// the fault is on the path, not the route — but the route is all we
		// can refresh. Map to ErrStale for the caller's retry loop.
		c.invalidateLeader(dir)
		return nil, fmt.Errorf("core: leader %q unreachable for %s (%v): %w", newLeader, dir.Short(), err, types.ErrStale)
	}
	return resp, nil
}

// --- permission cache -------------------------------------------------------

// pcacheLookup answers name in dir from the permission cache; as in StatReq,
// the empty name is dir itself. hit says an unexpired entry knows the name:
// node is then a copy of the inode, or nil beside the error to report, which
// is the leader's ENOENT remembered or, in the root (no parent's copy of its
// inode for walk to check), what its cached inode refuses. The entry never
// leaves c.mu.
func (c *Client) pcacheLookup(dir types.Ino, name string) (node *types.Inode, hit bool, err error) {
	if !c.opts.PermCache {
		return nil, false, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pe := c.pcache[dir]
	if pe == nil || c.env.Now() >= pe.expiry {
		delete(c.pcache, dir)
		return nil, false, nil
	}
	if node, hit = pe.lookups[name]; !hit {
		return nil, false, nil
	}
	if dir == types.RootIno && name != "" {
		root := pe.lookups[""]
		if root == nil {
			return nil, false, nil // an entry a create began: ask the leader
		}
		if err := root.Access(c.opts.Cred, types.MayExec); err != nil {
			return nil, true, fmt.Errorf("core: search %q: %w", name, err)
		}
	}
	if node == nil {
		return nil, true, fmt.Errorf("core: %q: %w", name, types.ErrNotExist)
	}
	return node.Clone(), true, nil
}

// pcachePut caches one lookup result in dir for what is left of the entry's
// lease period: a nil node is a negative entry, the empty name dir's own inode.
func (c *Client) pcachePut(dir types.Ino, name string, node *types.Inode) {
	if !c.opts.PermCache {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pe := c.pcache[dir]
	if pe == nil || c.env.Now() >= pe.expiry {
		pe = &permEntry{lookups: make(map[string]*types.Inode), expiry: c.env.Now() + c.opts.LeasePeriod}
		c.pcache[dir] = pe
	}
	switch {
	case node == nil:
		pe.lookups[name] = nil
	case node.Type == types.TypeRegular:
		// The permission cache covers pathname resolution (directory
		// permissions and traversal entries); file attributes stay fresh at
		// the leader. Drop any stale negative entry for the name.
		delete(pe.lookups, name)
	default:
		pe.lookups[name] = node.Clone()
	}
}

// pcacheInvalidate drops cached state for dir (after this client mutates it
// remotely, so it re-reads its own writes).
func (c *Client) pcacheInvalidate(dir types.Ino) {
	if !c.opts.PermCache {
		return
	}
	c.mu.Lock()
	delete(c.pcache, dir)
	c.mu.Unlock()
}
