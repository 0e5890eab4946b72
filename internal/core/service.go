package core

import (
	"context"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// serve dispatches one forwarded operation on a directory this client leads
// (paper §III-B: "the rest of the clients ... send their requests to the
// directory leader so that the directory leader can perform the requested
// operations on behalf of the other clients"). The worker context carries the
// caller's wire span context; serve opens one server-side child span per
// request so a forwarded operation stitches into a single trace across both
// processes, and journal writes triggered below parent under that span.
func (c *Client) serve(ctx context.Context, req any) any {
	m, known := describe(req)
	if !known {
		return ErrResp{Err: "EINVAL"}
	}
	sp := c.tracer.StartChild(obs.RemoteFrom(ctx), m.span, "")
	if sp != nil {
		sp.SetDir(m.dir)
		sp.SetTenant(obs.TenantFrom(ctx))
		sp.SetWait(obs.QueueWaitFrom(ctx))
		ctx = obs.WithSpan(ctx, sp)
	}
	if err := c.admit(ctx, m); err != nil {
		sp.End(err)
		return rpc.ShedFor(err)
	}
	resp := c.dispatch(ctx, m.dir, req)
	sp.End(errFromString(resp.errno()))
	return resp
}

// admit is the leader-side overload gate, run before a forwarded operation
// dispatches: per-tenant token-bucket admission control first, then the
// brownout ladder against the journal's commit-pipeline pressure. A refusal
// is a typed EAGAIN that serve answers with the fabric's Shed payload, so
// the caller sees the same retry-after error as for an inbox or queue-wait
// shed. Exempt messages (see msgInfo) are never refused.
func (c *Client) admit(ctx context.Context, m msgInfo) error {
	if m.exempt {
		return nil
	}
	if c.opts.QoS != nil {
		if ok, after := c.opts.QoS.Admit(obs.TenantFrom(ctx), c.qosNow()); !ok {
			c.cShedAdmit.Inc()
			return types.AgainAfter(after, "admission")
		}
	}
	if c.opts.Brownout != nil {
		if shed, after := c.opts.Brownout.Sheds(c.jrnl.Pressure(), m.cost); shed {
			c.cShedBrownout.Inc()
			return types.AgainAfter(after, "brownout")
		}
	}
	return nil
}

// dispatch runs req against dir, the directory the message table names for
// it. If this client does not lead dir the answer is ESTALE: the caller was
// redirected here but our lease is gone, so it must rediscover. FlushCacheReq
// names no directory; it is addressed to a lease holder, not to a leader.
func (c *Client) dispatch(ctx context.Context, dir types.Ino, req any) response {
	ld, leads := c.ledDirFor(dir)
	if _, toHolder := req.(FlushCacheReq); !leads && !toHolder {
		return ErrResp{Err: "ESTALE"}
	}
	switch r := req.(type) {
	case WalkReq:
		return c.serveWalk(ctx, ld, r)
	case UnlinkReq:
		return UnlinkResp{Err: errString(c.localUnlink(ctx, ld, r.Dir, r))}
	case StatReq:
		return c.serveStat(ld, r)
	case SetAttrReq:
		return c.serveSetAttr(ctx, ld, r)
	case ReaddirReq:
		return c.serveReaddir(ld, r)
	case RenameReq:
		// Forwarded renames run under the server worker's context — trace
		// identity but no deadline: the requesting client's deadline applies
		// to its RPC, not to the coordinator's 2PC, which must run to a
		// decision once started.
		return RenameResp{Err: errString(c.coordinateRename(ctx, r))}
	case PrepareRenameReq:
		return PrepareRenameResp{Err: errString(c.prepareRenameLocal(ctx, ld, r))}
	case DecideRenameReq:
		return DecideRenameResp{Err: errString(c.decideRenameLocal(ctx, ld, r))}
	case OpenReq:
		return c.serveOpen(ld, r)
	case WriteLeaseReq:
		direct, _ := c.grantLease(ld, r.Ino, r.Client, true)
		return WriteLeaseResp{Direct: direct}
	case CloseFileReq:
		if ld = c.ledBelow(ld, r.Below); ld != nil {
			c.releaseData(ld, r.Ino, r.Client, r.Grant)
		}
		return CloseFileResp{}
	case FlushCacheReq:
		return FlushCacheResp{Err: errString(c.recall(r.Ino))}
	default:
		// Described but not dispatched: a bug TestMessageTable catches.
		return ErrResp{Err: "EINVAL"}
	}
}

// serveWalk resolves r.Names one after another, starting in ld, for as long
// as each answer is a directory this client leads at that instant: it never
// acquires a lease on a walker's behalf. Every step checks search permission
// for the requester and charges a table operation, as a lookup sent for that
// step alone would; no lock is held from one step to the next. A walk that
// carries a create serves the last name with it (lookupAt). One that carries
// an open (r.Holder) and ends at a regular file it did not make is that open
// too: the grant serveOpen would make, and the inode as the table has it
// afterwards. A refusal grants nothing and is the walker's own access check to
// report.
func (c *Client) serveWalk(ctx context.Context, ld *ledDir, r WalkReq) WalkResp {
	resp := WalkResp{Inodes: make([][]byte, 0, len(r.Names))}
	dir := r.Dir
	for i := range r.Names {
		dirNode := ld.table.DirInode()
		if i == 0 && r.WantDirInode {
			resp.DirInode = wire.EncodeInode(dirNode)
		}
		if err := dirNode.Access(r.Cred, types.MayExec); err != nil {
			resp.Err = errString(err)
			return resp
		}
		child, leased, err := c.lookupAt(ctx, ld, dir, r.Names[i:], r.Create)
		if err != nil {
			resp.Err = errString(err)
			return resp
		}
		resp.Leased = leased
		made := r.Create != nil && child.Ino == r.Create.NewIno
		if i == len(r.Names)-1 && r.Holder != "" && child.Type == types.TypeRegular && !made {
			if fresh, direct, grant, err := c.openAt(ld, child, r.Cred, r.Holder, r.Write); err == nil {
				child, resp.Leased, resp.Direct, resp.Grant = fresh, true, direct, grant
			}
		}
		resp.Inodes = append(resp.Inodes, wire.EncodeInode(child))
		var leads bool
		if ld, leads = c.ledDirFor(child.Ino); !leads {
			break // not a directory, or not ours: the walker asks its leader
		}
		dir = child.Ino
	}
	return resp
}

// ledBelow is the led directory names lead to from ld, or nil if this client
// does not lead one of the directories on the way.
func (c *Client) ledBelow(ld *ledDir, names []string) *ledDir {
	for _, name := range names {
		_, child, err := ld.table.Lookup(name)
		if err != nil {
			return nil
		}
		if ld, _ = c.ledDirFor(child.Ino); ld == nil {
			return nil
		}
	}
	return ld
}

func (c *Client) serveStat(ld *ledDir, r StatReq) StatResp {
	node, err := c.localStat(ld, r)
	if err != nil {
		return StatResp{Err: errString(err)}
	}
	return StatResp{Inode: wire.EncodeInode(node)}
}

func (c *Client) serveSetAttr(ctx context.Context, ld *ledDir, r SetAttrReq) SetAttrResp {
	node, err := c.localSetAttr(ctx, ld, r.Dir, r)
	if err != nil {
		return SetAttrResp{Err: errString(err)}
	}
	return SetAttrResp{Inode: wire.EncodeInode(node)}
}

func (c *Client) serveReaddir(ld *ledDir, r ReaddirReq) ReaddirResp {
	entries, err := c.localReaddir(ld, r)
	if err != nil {
		return ReaddirResp{Err: errString(err)}
	}
	return ReaddirResp{Entries: entries}
}
