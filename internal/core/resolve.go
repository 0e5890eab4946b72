package core

import (
	"context"
	"errors"
	"fmt"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// maxSymlinkDepth bounds symlink chains during resolution (ELOOP).
const maxSymlinkDepth = 8

// resolved is the outcome of a path walk: the parent directory and, when the
// final entry exists, its inode.
type resolved struct {
	parent     types.Ino    // inode of the parent directory
	parentNode *types.Inode // parent's inode (for permission checks)
	name       string       // final component ("" for the root itself)
	node       *types.Inode // final inode, nil if the entry does not exist
}

// resolvePath walks an absolute path from the root, performing a lookup and
// an execute-permission check at every component — the behavior the FUSE
// driver forces on ArkFS (paper §IV-C). Lookups in directories this client
// leads are local; remote lookups go to the leader unless the permission
// cache covers them. followLast controls symlink resolution of the final
// component.
func (c *Client) resolvePath(ctx context.Context, path string, followLast bool) (*resolved, error) {
	return c.walk(ctx, path, followLast, 0)
}

func (c *Client) walk(ctx context.Context, path string, followLast bool, depth int) (*resolved, error) {
	if depth > maxSymlinkDepth {
		return nil, fmt.Errorf("core: %q: %w", path, types.ErrLoop)
	}
	parts, err := types.SplitPath(path)
	if err != nil {
		return nil, err
	}
	cur := types.RootIno
	var curNode *types.Inode

	if len(parts) == 0 {
		node, err := c.statDir(ctx, cur)
		if err != nil {
			return nil, err
		}
		return &resolved{parent: cur, parentNode: node, name: "", node: node}, nil
	}

	for i, name := range parts {
		// Search permission on the directory being traversed.
		if curNode == nil {
			curNode, err = c.statDir(ctx, cur)
			if err != nil {
				return nil, err
			}
		}
		if err := curNode.Access(c.opts.Cred, types.MayExec); err != nil {
			return nil, fmt.Errorf("core: search %q: %w", name, err)
		}
		last := i == len(parts)-1
		child, err := c.lookup(ctx, cur, name)
		if err != nil {
			if last && isNotExist(err) {
				// Parent exists; final entry does not — callers like Create
				// need exactly this state.
				return &resolved{parent: cur, parentNode: curNode, name: name}, nil
			}
			return nil, err
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
			return c.walk(ctx, target, followLast, depth+1)
		}
		if last {
			return &resolved{parent: cur, parentNode: curNode, name: name, node: child}, nil
		}
		if !child.IsDir() {
			return nil, fmt.Errorf("core: %q in %q: %w", name, path, types.ErrNotDir)
		}
		cur = child.Ino
		curNode = child
	}
	panic("unreachable")
}

// statDir returns a directory's inode: locally if led, from the permission
// cache, or from the leader (caching the answer in pcache mode).
func (c *Client) statDir(ctx context.Context, dir types.Ino) (*types.Inode, error) {
	ld, ok := c.ledDirFor(dir)
	if !ok {
		if pe := c.pcacheGet(dir); pe != nil && pe.inode != nil {
			c.stats.PcacheHits.Add(1)
			return pe.inode.Clone(), nil
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
			c.pcachePutDir(dir, node)
			return node, nil
		}
	}
	c.stats.LocalMetaOps.Add(1)
	return ld.table.DirInode(), nil
}

// lookup resolves one name within dir. Unlike the other forwarded operations
// it treats the leader's ENOENT as an answer worth keeping (a negative
// permission-cache entry), and it caches the directory inode piggy-backed on
// the answer whether or not the name resolved.
func (c *Client) lookup(ctx context.Context, dir types.Ino, name string) (*types.Inode, error) {
	ld, ok := c.ledDirFor(dir)
	if !ok {
		if pe := c.pcacheGet(dir); pe != nil {
			if node, ok := pe.lookups[name]; ok {
				c.stats.PcacheHits.Add(1)
				if node == nil {
					return nil, fmt.Errorf("core: %q: %w", name, types.ErrNotExist)
				}
				return node.Clone(), nil
			}
		}
		var resp LookupResp
		var err error
		ld, resp, err = forward[LookupResp](ctx, c, nil, dir, LookupReq{
			Dir: dir, Name: name, Cred: c.opts.Cred, WantDirInode: c.opts.PermCache,
		})
		if c.opts.PermCache && len(resp.DirInode) > 0 {
			if dn, derr := wire.DecodeInode(resp.DirInode); derr == nil {
				c.pcachePutDir(dir, dn)
			}
		}
		if err != nil {
			if resp.Err != "" && isNotExist(err) {
				c.pcachePutLookup(dir, name, nil) // the leader said so: negative entry
			}
			return nil, fmt.Errorf("core: lookup %q: %w", name, err)
		}
		if ld == nil {
			node, err := wire.DecodeInode(resp.Inode)
			if err != nil {
				return nil, err
			}
			c.pcachePutLookup(dir, name, node)
			return node, nil
		}
	}
	c.chargeMetaOp()
	c.stats.LocalMetaOps.Add(1)
	_, child, err := ld.table.Lookup(name)
	return child, err
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

// pcacheGet returns a live permission-cache entry for dir, or nil.
func (c *Client) pcacheGet(dir types.Ino) *permEntry {
	if !c.opts.PermCache {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pe := c.pcache[dir]
	if pe == nil || c.env.Now() >= pe.expiry {
		delete(c.pcache, dir)
		return nil
	}
	return pe
}

// pcachePutDir caches a remote directory's inode for one lease period.
func (c *Client) pcachePutDir(dir types.Ino, node *types.Inode) {
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
	pe.inode = node.Clone()
}

// pcachePutLookup caches one lookup result (nil = negative entry).
func (c *Client) pcachePutLookup(dir types.Ino, name string, node *types.Inode) {
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
	if node == nil {
		pe.lookups[name] = nil // negative entry
		return
	}
	if node.Type == types.TypeRegular {
		// The permission cache covers pathname resolution (directory
		// permissions and traversal entries); file attributes stay fresh at
		// the leader. Drop any stale negative entry for the name.
		delete(pe.lookups, name)
		return
	}
	pe.lookups[name] = node.Clone()
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
