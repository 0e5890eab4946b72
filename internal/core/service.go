package core

import (
	"context"
	"sync/atomic"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
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
	meta := rpc.MetaFrom(ctx)
	sp := c.tracer.StartChild(meta.Span, m.span, "")
	if sp != nil {
		sp.SetDir(m.dir)
		sp.SetWait(meta.Wait)
		ctx = obs.WithSpan(ctx, sp)
	}
	if err := c.admit(meta.Origin, m); err != nil {
		sp.End(err)
		return rpc.ShedFor(err)
	}
	resp := c.dispatch(ctx, m.dir, req)
	sp.End(errFromString(resp.errno()))
	return resp
}

// admit is the leader-side overload gate, run before a forwarded operation
// dispatches: token-bucket admission control per origin, the client the op
// started at. A refusal is a typed EAGAIN that serve answers with the
// fabric's Shed payload, so the caller sees a retry-after error. Exempt
// messages (see msgInfo) are never refused.
func (c *Client) admit(origin rpc.Addr, m msgInfo) error {
	if m.exempt || c.opts.QoS == nil {
		return nil
	}
	if ok, after := c.opts.QoS.Admit(string(origin), c.qosNow()); !ok {
		c.cShedAdmit.Inc()
		return types.AgainAfter(after, "admission")
	}
	return nil
}

// servedLapsed counts the requests dispatch served from a ledDir whose lease
// was not live at the clock reading the request arrived with, while a test
// that churns the led set has servesChecked set.
var (
	servesChecked atomic.Bool
	servedLapsed  atomic.Int64
)

// dispatch runs req against dir, the directory the message table names for
// it. If this client does not lead dir the answer is ESTALE: the caller was
// redirected here but our lease is gone, so it must rediscover. FlushCacheReq
// names no directory; it is addressed to a lease holder, not to a leader.
func (c *Client) dispatch(ctx context.Context, dir types.Ino, req any) response {
	var arrived time.Duration
	if servesChecked.Load() {
		arrived = c.env.Now()
	}
	ld, leads := c.ledDirFor(dir)
	if leads && servesChecked.Load() && !ld.lease.Load().Live(arrived) {
		servedLapsed.Add(1)
	}
	if _, toHolder := req.(FlushCacheReq); !leads && !toHolder {
		return ErrResp{Err: "ESTALE"}
	}
	switch r := req.(type) {
	case WalkReq:
		return c.serveWalk(ctx, ld, r)
	case UnlinkReq:
		return UnlinkResp{Err: errString(c.localUnlink(ctx, ld, r.Dir, r))}
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
	case WriteLeaseReq:
		direct, _ := c.grantLease(ld, r.Ino, r.Client, true)
		return WriteLeaseResp{Direct: direct}
	case CloseFileReq:
		if ld = c.ledBelow(ld, r.Below); ld != nil {
			ld.opMu.Lock()
			ld.leases.release(r.Ino, r.Client, r.Grant)
			ld.opMu.Unlock()
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
// too: the access check, the grant, and the inode as it is after the grant.
// A refusal grants nothing and is the walker's own access check to report.
func (c *Client) serveWalk(ctx context.Context, ld *ledDir, r WalkReq) WalkResp {
	resp := WalkResp{Inodes: make([]*types.Inode, 0, len(r.Names))}
	if r.WantDirInode {
		resp.DirInode = ld.table.Dir()
	}
	dir := r.Dir
	for i := range r.Names {
		dirNode := ld.table.Dir()
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
			want := uint8(types.MayRead)
			if r.Write {
				want = types.MayWrite
			}
			if child.Access(r.Cred, want) == nil {
				resp.Direct, resp.Grant = c.grantLease(ld, child.Ino, r.Holder, false)
				child, resp.Leased = ld.child(child), true
			}
		}
		resp.Inodes = append(resp.Inodes, child)
		if child.Type != types.TypeDir {
			break
		}
		var leads bool
		if ld, leads = c.ledDirFor(child.Ino); !leads {
			break // not ours: the walker asks its leader
		}
		dir = child.Ino
	}
	return resp
}

// ledBelow is the led directory names lead to from ld, or nil if this client
// does not lead one of the directories on the way.
func (c *Client) ledBelow(ld *ledDir, names []string) *ledDir {
	for _, name := range names {
		child, err := ld.table.Peek(name)
		if err != nil {
			return nil
		}
		if ld, _ = c.ledDirFor(child.Ino); ld == nil {
			return nil
		}
	}
	return ld
}

func (c *Client) serveSetAttr(ctx context.Context, ld *ledDir, r SetAttrReq) SetAttrResp {
	node, err := c.localSetAttr(ctx, ld, r.Dir, r)
	if err != nil {
		return SetAttrResp{Err: errString(err)}
	}
	return SetAttrResp{Inode: node}
}

func (c *Client) serveReaddir(ld *ledDir, r ReaddirReq) ReaddirResp {
	entries, err := c.localReaddir(ld, r)
	if err != nil {
		return ReaddirResp{Err: errString(err)}
	}
	return ReaddirResp{Entries: entries}
}
