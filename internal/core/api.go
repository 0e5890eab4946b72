package core

import (
	"context"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Public near-POSIX API. Every call charges the FUSE overhead once (the
// application-visible request) and then routes per-directory: local metatable
// operations when this client leads the parent, forwarded RPCs otherwise.
//
// Every operation takes a context: deadlines and cancellation are honored at
// forwarded-RPC boundaries and in lease-acquire wait loops, and the per-op
// trace span rides the context into the routing layers, which tag it with the
// chosen route (local vs remote), the parent directory, and retries.

// maxOpRetries caps the retries of one forwarded operation (see forward).
const maxOpRetries = 8

// opTrack measures one public operation: a trace span, committed to the ring
// at end, plus the op's latency histogram.
type opTrack struct {
	c     *Client
	hist  *obs.Histogram
	span  *obs.Span
	start time.Duration
}

// startOp opens a span for op and attaches it to ctx. With observability off
// it returns ctx unchanged and a nil tracker; end is nil-safe, so call sites
// never branch. This is where the tenant attribution is minted: the root
// span carries it and the context propagates it through every forward (the
// RPC envelope lifts it on each hop). The operation's shared retry budget is
// minted here too, so every retry loop under this call — and, via the
// envelope, under its forwarded hops — draws from one pool.
func (c *Client) startOp(ctx context.Context, op, path string) (context.Context, *opTrack) {
	ctx = c.withOpBudget(ctx)
	if c.obsReg == nil {
		return ctx, nil
	}
	t := &opTrack{c: c, hist: c.opHists[op], span: c.tracer.Start(op, path), start: c.env.Now()}
	t.span.SetTenant(c.opts.Tenant)
	ctx = obs.WithTenant(ctx, c.opts.Tenant)
	if t.span != nil {
		ctx = obs.WithSpan(ctx, t.span)
	}
	return ctx, t
}

// end closes the span and records the operation latency — globally and in the
// per-tenant table, with the trace ID as the bucket exemplar — passing err
// through so call sites stay one-liners.
func (t *opTrack) end(err error) error {
	if t == nil {
		return err
	}
	t.span.End(err)
	d := t.c.env.Now() - t.start
	var trace obs.TraceID
	var retries int
	if t.span != nil {
		trace = t.span.Trace
		retries = t.span.Retries
	}
	t.hist.ObserveTrace(d, trace)
	t.c.tenants.Observe(t.c.opts.Tenant, d, trace, err != nil, retries)
	return err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(ctx context.Context, path string, mode types.Mode) error {
	ctx, op := c.startOp(ctx, "mkdir", path)
	c.chargeFUSE()
	err := c.makeNode(ctx, path, CreateReq{Type: types.TypeDir, Mode: mode})
	return op.end(errnoWrap("mkdir", path, err))
}

// Symlink creates a symbolic link at path pointing to target.
func (c *Client) Symlink(ctx context.Context, target, path string) error {
	ctx, op := c.startOp(ctx, "symlink", path)
	c.chargeFUSE()
	err := c.makeNode(ctx, path, CreateReq{Type: types.TypeSymlink, Mode: 0777, Target: target})
	return op.end(errnoWrap("symlink", path, err))
}

// makeNode makes what cr describes at path, which must not exist, the create
// riding the walk to path's last name (DESIGN.md §5.7). A symlink there is an
// entry like any other, not followed.
func (c *Client) makeNode(ctx context.Context, path string, cr CreateReq) error {
	cr.Cred, cr.NewIno, cr.Exclusive = c.opts.Cred, c.inoSrc.Next(), true
	res, err := c.walk(ctx, path, false, 0, &ride{create: &cr})
	if err == nil && (res.node == nil || res.node.Ino != cr.NewIno) {
		err = types.ErrExist // the root, or an entry the permission cache knows
	}
	return err
}

// Readlink returns the target of a symlink.
func (c *Client) Readlink(ctx context.Context, path string) (string, error) {
	ctx, op := c.startOp(ctx, "readlink", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, false)
	if err != nil {
		return "", op.end(errnoWrap("readlink", path, err))
	}
	if res.node == nil {
		return "", op.end(errnoWrap("readlink", path, types.ErrNotExist))
	}
	if res.node.Type != types.TypeSymlink {
		return "", op.end(errnoWrap("readlink", path, types.ErrInval))
	}
	return res.node.Target, op.end(nil)
}

// Stat returns the inode at path, following symlinks.
func (c *Client) Stat(ctx context.Context, path string) (*types.Inode, error) {
	ctx, op := c.startOp(ctx, "stat", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, true)
	if err != nil {
		return nil, op.end(errnoWrap("stat", path, err))
	}
	if res.node == nil {
		return nil, op.end(errnoWrap("stat", path, types.ErrNotExist))
	}
	return res.node, op.end(nil)
}

// Lstat returns the inode at path without following a final symlink.
func (c *Client) Lstat(ctx context.Context, path string) (*types.Inode, error) {
	ctx, op := c.startOp(ctx, "lstat", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, false)
	if err != nil {
		return nil, op.end(errnoWrap("lstat", path, err))
	}
	if res.node == nil {
		return nil, op.end(errnoWrap("lstat", path, types.ErrNotExist))
	}
	return res.node, op.end(nil)
}

// Unlink removes a file or symlink.
func (c *Client) Unlink(ctx context.Context, path string) error {
	ctx, op := c.startOp(ctx, "unlink", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, false)
	if err != nil {
		return op.end(errnoWrap("unlink", path, err))
	}
	if res.name == "" {
		return op.end(errnoWrap("unlink", path, types.ErrIsDir))
	}
	err = c.unlink(ctx, res.parent, UnlinkReq{Dir: res.parent, Name: res.name, Cred: c.opts.Cred})
	c.pcacheInvalidate(res.parent)
	return op.end(errnoWrap("unlink", path, err))
}

// Rmdir removes an empty directory.
func (c *Client) Rmdir(ctx context.Context, path string) error {
	ctx, op := c.startOp(ctx, "rmdir", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, false)
	if err != nil {
		return op.end(errnoWrap("rmdir", path, err))
	}
	if res.name == "" {
		return op.end(errnoWrap("rmdir", path, types.ErrBusy)) // removing "/"
	}
	if res.node == nil {
		return op.end(errnoWrap("rmdir", path, types.ErrNotExist))
	}
	if !res.node.IsDir() {
		return op.end(errnoWrap("rmdir", path, types.ErrNotDir))
	}
	// Emptiness is the target directory's business: consult its leader (or
	// become it). The window between this check and the unlink is accepted,
	// as directory creation requires the parent lease we are about to use.
	entries, err := c.readdirIno(ctx, res.node.Ino)
	if err != nil {
		return op.end(errnoWrap("rmdir", path, err))
	}
	if len(entries) > 0 {
		return op.end(errnoWrap("rmdir", path, types.ErrNotEmpty))
	}
	// Give up our own lease on the dying directory before removing it.
	_ = c.ReleaseDir(res.node.Ino)
	err = c.unlink(ctx, res.parent, UnlinkReq{Dir: res.parent, Name: res.name, Rmdir: true, Cred: c.opts.Cred})
	c.pcacheInvalidate(res.parent)
	return op.end(errnoWrap("rmdir", path, err))
}

// Readdir lists a directory.
func (c *Client) Readdir(ctx context.Context, path string) ([]wire.Dentry, error) {
	ctx, op := c.startOp(ctx, "readdir", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, true)
	if err != nil {
		return nil, op.end(errnoWrap("readdir", path, err))
	}
	if res.node == nil {
		return nil, op.end(errnoWrap("readdir", path, types.ErrNotExist))
	}
	if !res.node.IsDir() {
		return nil, op.end(errnoWrap("readdir", path, types.ErrNotDir))
	}
	entries, err := c.readdirIno(ctx, res.node.Ino)
	return entries, op.end(errnoWrap("readdir", path, err))
}

// Chmod changes permission bits.
func (c *Client) Chmod(ctx context.Context, path string, mode types.Mode) error {
	ctx, op := c.startOp(ctx, "chmod", path)
	_, err := c.setAttr(ctx, path, AttrPatch{SetMode: true, Mode: mode})
	return op.end(errnoWrap("chmod", path, err))
}

// Chown changes ownership (root only, as in POSIX without CAP_CHOWN games).
func (c *Client) Chown(ctx context.Context, path string, uid, gid uint32) error {
	ctx, op := c.startOp(ctx, "chown", path)
	_, err := c.setAttr(ctx, path, AttrPatch{SetOwner: true, Uid: uid, Gid: gid})
	return op.end(errnoWrap("chown", path, err))
}

// SetACL installs a POSIX.1e-style access control list.
func (c *Client) SetACL(ctx context.Context, path string, acl types.ACL) error {
	ctx, op := c.startOp(ctx, "setfacl", path)
	_, err := c.setAttr(ctx, path, AttrPatch{SetACL: true, ACL: acl})
	return op.end(errnoWrap("setfacl", path, err))
}

// Utimes sets the modification time.
func (c *Client) Utimes(ctx context.Context, path string, mtime time.Duration) error {
	ctx, op := c.startOp(ctx, "utimes", path)
	_, err := c.setAttr(ctx, path, AttrPatch{SetTimes: true, Mtime: mtime})
	return op.end(errnoWrap("utimes", path, err))
}

// Truncate sets the file size.
func (c *Client) Truncate(ctx context.Context, path string, size int64) error {
	ctx, op := c.startOp(ctx, "truncate", path)
	if size < 0 {
		return op.end(errnoWrap("truncate", path, types.ErrInval))
	}
	_, err := c.setAttr(ctx, path, AttrPatch{SetSize: true, Size: size})
	return op.end(errnoWrap("truncate", path, err))
}

// Fsync flushes the journal of the directory containing path — the
// metadata-durability half of fsync(2); File.Sync covers data.
func (c *Client) Fsync(ctx context.Context, path string) error {
	ctx, op := c.startOp(ctx, "fsync", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, true)
	if err != nil {
		return op.end(errnoWrap("fsync", path, err))
	}
	dir := res.parent
	if res.node != nil && res.node.IsDir() {
		dir = res.node.Ino
	}
	if ld, ok := c.ledDirFor(dir); ok {
		return op.end(errnoWrap("fsync", path, c.fsyncDir(dir, ld)))
	}
	return op.end(nil) // a remote leader owns the journal; its commit cadence applies
}

// FlushAll writes back all cached data and makes every acknowledged metadata
// mutation durable (the fsync-per-phase behavior the benchmarks use). The
// journal half is a durability barrier, not a checkpoint: once every journal
// record is in the object store, a crash is recoverable by replay, and the
// checkpoint workers fold the records into the original objects behind the
// barrier. Lease handoff (Close, ReleaseDir) still uses the strong
// commit-and-checkpoint flush. Data leases that clean closes are giving back
// (release) have reached their leaders when FlushAll returns.
func (c *Client) FlushAll(ctx context.Context) error {
	_, op := c.startOp(ctx, "flushall", "")
	if err := c.data.FlushAll(); err != nil {
		return op.end(err)
	}
	if err := c.jrnl.BarrierAll(); err != nil {
		return op.end(err)
	}
	c.awaitReturns()
	// Surface any background write-back failure (lease recall, close path)
	// recorded since the last FlushAll; the failed entries stayed dirty, so
	// the FlushAll above has already retried them.
	return op.end(c.takeWBErr())
}

// --- dispatch helpers --------------------------------------------------------

// unlink routes an UnlinkReq to the parent's leader.
func (c *Client) unlink(ctx context.Context, parent types.Ino, req UnlinkReq) error {
	ld, _, err := forward[UnlinkResp](ctx, c, obs.SpanFrom(ctx), parent, req)
	if ld != nil {
		return c.localUnlink(ctx, ld, parent, req)
	}
	return err
}

// setAttr resolves path and routes the patch to the right leader.
func (c *Client) setAttr(ctx context.Context, path string, patch AttrPatch) (*types.Inode, error) {
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, true)
	if err != nil {
		return nil, err
	}
	if res.node == nil {
		return nil, types.ErrNotExist
	}
	// Attribute ownership follows the dentry: the parent directory's leader
	// holds the authoritative inode copy of every child, directories
	// included. Only the root, which has no parent entry, is handled by its
	// own leader (name "").
	node, err := c.setAttrIno(ctx, res.parent, res.name, patch, false)
	if err != nil {
		return nil, err
	}
	c.pcacheInvalidate(res.parent)
	if node.IsDir() {
		c.pcacheInvalidate(node.Ino)
		// If we lead the directory whose attributes changed, refresh the
		// snapshot its own metatable uses for access checks. Other leaders
		// refresh at their next lease turnover (bounded staleness, like the
		// permission-cache relaxation).
		if ld, ok := c.ledDirFor(node.Ino); ok {
			ld.opMu.Lock()
			ld.table.SetDirInode(node)
			ld.opMu.Unlock()
		}
	}
	return node, nil
}

// setAttrIno routes a SetAttrReq for (dir, name) to its leader.
func (c *Client) setAttrIno(ctx context.Context, dir types.Ino, name string, patch AttrPatch, implicit bool) (*types.Inode, error) {
	req := SetAttrReq{Dir: dir, Name: name, Cred: c.opts.Cred, Patch: patch, Implicit: implicit}
	ld, resp, err := forward[SetAttrResp](ctx, c, obs.SpanFrom(ctx), dir, req)
	if ld != nil {
		return c.localSetAttr(ctx, ld, dir, req)
	}
	if err != nil {
		return nil, err
	}
	return wire.DecodeInode(resp.Inode)
}

// readdirIno lists a directory by inode through its leader.
func (c *Client) readdirIno(ctx context.Context, dir types.Ino) ([]wire.Dentry, error) {
	req := ReaddirReq{Dir: dir, Cred: c.opts.Cred}
	ld, resp, err := forward[ReaddirResp](ctx, c, obs.SpanFrom(ctx), dir, req)
	if ld != nil {
		return c.localReaddir(ld, req)
	}
	return resp.Entries, err
}
