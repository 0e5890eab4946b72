package core

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// File is one open descriptor of an ArkFS file: the flags and path it was
// opened with, where that path led, and its cursor. What this client knows
// about the inode behind it is in the openFile record it points at.
type File struct {
	c      *Client
	of     *openFile
	path   string
	parent types.Ino // the directory path resolved to
	name   string    // and the file's name in it
	flags  types.OpenFlag
	closed atomic.Bool
	cur    types.Cursor
}

// openFile is a client's one record per inode it has open, in Client.open:
// its side of the data lease, the one size it believes, the write-back.
type openFile struct {
	ino types.Ino

	// Guarded by Client.mu; once the lease is returning nothing changes them.
	parent   types.Ino           // whose leader the latest Open registered with
	below    []string            // from parent down to the file's directory, if a create never learned it
	lease    heldLease           // its mode under mu too
	returned *sim.Chan[struct{}] // made by an Open that waits; closed once the lease is back

	mu    sync.Mutex
	size  int64
	ver   uint64 // bumped by every write, truncate and publish through this client
	wrote bool   // size/mtime need pushing at Sync/Close
}

// Open opens (and with OCreate, creates) a file.
func (c *Client) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (*File, error) {
	ctx, op := c.startOp(ctx, "open", path)
	c.chargeFUSE()
	// The walk carries the open, and with O_CREAT the create (DESIGN.md §5.7).
	walked := &ride{holder: c.addr, write: flags.WantsWrite()}
	if flags.Has(types.OCreate) {
		walked.create = &CreateReq{Type: types.TypeRegular, Mode: mode, Cred: c.opts.Cred, NewIno: c.inoSrc.Next(),
			Exclusive: flags.Has(types.OExcl), Holder: c.addr, Write: flags.WantsWrite()}
		walked.made = c.ref(types.Ino{}, walked.create.NewIno)
	}
	c.mu.Lock()
	since := c.hold.mark()
	c.mu.Unlock()
	res, err := c.walk(ctx, path, true, 0, walked)
	f := &File{c: c, path: path, flags: flags}
	if walked.made != nil {
		f.of = c.created(walked, res, err)
	}
	if err != nil {
		return nil, op.end(errnoWrap("open", path, err))
	}
	if res.name == "" {
		return nil, op.end(errnoWrap("open", path, types.ErrIsDir))
	}
	f.parent, f.name = res.parent, res.name
	node := res.node
	switch {
	case f.of != nil:
		// Made by the walk, with its lease: the mode binds later opens, not the
		// one that made the file, and there is nothing to truncate or append after.
		return f, op.end(nil)
	case node == nil:
		return nil, op.end(errnoWrap("open", path, types.ErrNotExist))
	case flags.Has(types.OExcl) && walked.create != nil && node.Ino != walked.create.NewIno:
		return nil, op.end(errnoWrap("open", path, types.ErrExist))
	case node.IsDir():
		return nil, op.end(errnoWrap("open", path, types.ErrIsDir))
	}
	// The file existed: check the requested access, then attach.
	var want uint8
	if flags.WantsRead() {
		want |= types.MayRead
	}
	if flags.WantsWrite() {
		want |= types.MayWrite
	}
	granted := walked.leased
	err = node.Access(c.opts.Cred, want)
	if err != nil && !granted {
		return nil, op.end(errnoWrap("open", path, err))
	}
	f.of = c.ref(res.parent, node.Ino)
	believed := granted && c.adopt(f.of, walked.grant, &since)
	if err == nil {
		err = f.attach(ctx, node, believed)
	}
	if err != nil {
		c.unref(f.of)
		return nil, op.end(errnoWrap("open", path, err))
	}
	return f, op.end(nil)
}

// created settles w.made, the record Open took before the walk left for the
// inode its create would make: it holds the lease the create granted, none,
// or one a walk with no answer may have left listed, which it returns.
func (c *Client) created(w *ride, res resolved, err error) *openFile {
	of := w.made
	if err != nil || res.node == nil || res.node.Ino != of.ino || !w.leased {
		if err != nil && w.lost {
			c.mu.Lock()
			c.hold.adopt(&of.lease, w.route, dataGrant{}, nil)
			c.mu.Unlock()
		}
		c.unref(of)
		return nil
	}
	c.mu.Lock()
	of.parent, of.below = res.parent, nil
	c.mu.Unlock()
	if w.write {
		c.data.Created(of.ino)
	}
	g := w.grant
	g.write = w.write
	c.adopt(of, g, nil)
	return of
}

// Create is the creat(2) shorthand: O_WRONLY|O_CREATE|O_TRUNC.
func (c *Client) Create(ctx context.Context, path string, mode types.Mode) (*File, error) {
	return c.Open(ctx, path, types.OWronly|types.OCreate|types.OTrunc, mode)
}

// ref takes a reference on ino's record for an Open, making it if need be: a
// record still writing back is taken as it stands, and only a decided return
// is waited for.
func (c *Client) ref(parent, ino types.Ino) *openFile {
	c.mu.Lock()
	for {
		of := c.open[ino]
		if of == nil {
			of = &openFile{ino: ino}
			c.open[ino] = of
		}
		if c.hold.open(&of.lease) {
			of.parent, of.below = parent, nil
			c.mu.Unlock()
			return of
		}
		c.waitOn(&of.returned)
	}
}

// waitOn waits for *ch, made if need be, to close; Client.mu is let go meanwhile.
func (c *Client) waitOn(ch **sim.Chan[struct{}]) {
	if *ch == nil {
		*ch = sim.NewChan[struct{}](c.env)
	}
	wait := *ch
	c.mu.Unlock()
	wait.Recv()
	c.mu.Lock()
}

// unref drops a reference; the last one out releases the record, after a
// background write-back under the lease if dirty (a failed one keeps both).
func (c *Client) unref(of *openFile) {
	c.mu.Lock()
	last := c.hold.close(&of.lease)
	c.mu.Unlock()
	if !last || !c.data.Dirty(of.ino) {
		c.release(of, false) // which stands down while a handle holds the record
		return
	}
	c.env.Go(func() {
		if err := c.data.Flush(of.ino); err != nil {
			c.recordWBErr(err)
			return
		}
		c.release(of, true)
	})
}

// release invalidates the cache and gives the lease back if leaseHolder.release
// decides so; a remote leader's return leaves on a goroutine unless inline.
func (c *Client) release(of *openFile, inline bool) {
	c.mu.Lock()
	ld, leads := c.ledDirFor(of.parent)
	back, ok := c.hold.release(&of.lease, c.data.Dirty(of.ino), leads)
	if ok {
		c.data.Invalidate(of.ino)
	}
	c.mu.Unlock()
	if back.self {
		ld.opMu.Lock()
		ld.leases.release(of.ino, c.addr, back.grant)
		ld.opMu.Unlock()
	}
	switch {
	case !ok:
	case back.to == "" || inline:
		c.giveBack(of, back)
	default:
		c.env.Go(func() { c.giveBack(of, back) })
	}
}

// giveBack ends a release. A remote return goes to whoever listed this client,
// not through the lease manager, which could make this client the leader;
// a lost one leaves a stale holder until the directory's lease turns over.
func (c *Client) giveBack(of *openFile, back leaseReturn) {
	if back.to != "" {
		_, _ = c.net.CallFrom(c.addr, back.to, CloseFileReq{Dir: of.parent, Below: of.below, Ino: of.ino, Client: c.addr, Grant: back.grant})
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if delete(c.open, of.ino); of.returned != nil {
		of.returned.Close()
	}
	if back.to != "" && c.hold.answered() && c.quiet != nil {
		c.quiet.Close()
		c.quiet = nil
	}
}

// awaitReturns waits until no lease return is on its way to a remote leader.
func (c *Client) awaitReturns() {
	c.mu.Lock()
	if !c.hold.quiet() {
		c.waitOn(&c.quiet)
	}
	c.mu.Unlock()
}

// adopt is leaseHolder.adopt of g, listed by g.via's leader.
func (c *Client) adopt(of *openFile, g dataGrant, since *uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	of.mu.Lock()
	defer of.mu.Unlock()
	return c.hold.adopt(&of.lease, c.remote[g.via], g, since)
}

// attach registers the data lease at the parent's leader unless the walk has
// (walked), takes the fresher size, and applies O_TRUNC and O_APPEND.
func (f *File) attach(ctx context.Context, node *types.Inode, walked bool) error {
	of := f.of
	of.mu.Lock()
	ver := of.ver
	of.mu.Unlock()
	size := node.Size
	// A size gone through the record since it was made may be newer than the
	// walk's, which left before.
	if !walked || ver != 0 {
		g, fresh, err := f.c.openDataLease(ctx, f.parent, f.name, node, f.flags.WantsWrite())
		if err != nil {
			return err
		}
		f.c.adopt(of, g, nil)
		size = fresh
	}
	of.mu.Lock()
	// The leader's size is the fresher one (close-to-open) unless this client
	// has bytes it has not published, or a size went through since it asked.
	if !of.wrote && of.ver == ver {
		of.size = size
	}
	size = of.size
	of.mu.Unlock()
	if f.flags.Has(types.OTrunc) && f.flags.WantsWrite() && size > 0 {
		// O_TRUNC goes through the parent's leader, like truncate(2).
		res, err := f.c.setAttrIno(context.Background(), f.parent, f.name, AttrPatch{SetSize: true, Size: 0}, types.Ino{})
		if err != nil {
			return err
		}
		of.mu.Lock()
		of.size = res.Size
		of.ver++
		of.mu.Unlock()
		f.c.data.Invalidate(of.ino)
	} else if f.flags.Has(types.OAppend) {
		f.cur.Store(size)
	}
	return nil
}

// openDataLease registers a read lease for node at the parent's leader and
// returns the grant and the file's size. A remote leader is sent a one-name
// walk carrying the open; if name now leads to another inode it is ENOENT.
func (c *Client) openDataLease(ctx context.Context, parent types.Ino, name string, node *types.Inode, write bool) (dataGrant, int64, error) {
	ld, ok := c.ledDirFor(parent)
	if !ok {
		var resp WalkResp
		var err error
		req := WalkReq{Dir: parent, Names: []string{name}, Cred: c.opts.Cred, Holder: c.addr, Write: write}
		if ld, resp, err = forward[WalkResp](ctx, c, nil, parent, req); err != nil {
			return dataGrant{}, 0, err
		}
		if ld == nil {
			if len(resp.Inodes) != 1 || resp.Inodes[0] == nil {
				return dataGrant{}, 0, fmt.Errorf("core: open %q: leader answered no inode: %w", name, types.ErrIO)
			}
			fresh := resp.Inodes[0]
			switch {
			case fresh.Ino != node.Ino:
				if resp.Leased { // a grant for that other inode: give it back
					other := c.ref(parent, fresh.Ino)
					c.adopt(other, dataGrant{via: parent, seq: resp.Grant, direct: resp.Direct}, nil)
					c.unref(other)
				}
				return dataGrant{}, 0, fmt.Errorf("core: open %q: %w", name, types.ErrNotExist)
			case !resp.Leased: // the leader's access check refused it
				return dataGrant{}, 0, fmt.Errorf("core: open %q: %w", name, types.ErrAccess)
			}
			return dataGrant{via: parent, seq: resp.Grant, direct: resp.Direct}, fresh.Size, nil
		}
	}
	direct, seq := c.grantLease(ld, node.Ino, c.addr, false)
	return dataGrant{via: parent, seq: seq, direct: direct}, ld.child(node).Size, nil
}

// Size returns this client's view of the file size.
func (f *File) Size() int64 {
	f.of.mu.Lock()
	defer f.of.mu.Unlock()
	return f.of.size
}

// Ino returns the file's inode number.
func (f *File) Ino() types.Ino { return f.of.ino }

// ReadAt reads len(p) bytes at offset off, returning io.EOF at end of file.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	start := f.c.env.Now()
	f.c.chargeFUSE()
	if f.closed.Load() || !f.flags.WantsRead() {
		return 0, types.ErrBadFD
	}
	of := f.of
	of.mu.Lock()
	size := of.size
	direct, _ := of.lease.mode()
	of.mu.Unlock()

	var n int
	var err error
	if direct {
		n, err = f.c.tr.ReadAt(of.ino, p, off, size)
	} else {
		n, err = f.c.data.Read(of.ino, p, off, size)
	}
	f.c.cBytesRead.Add(int64(n))
	f.c.opHists["read"].Observe(f.c.env.Now() - start)
	if err != nil {
		return n, errnoWrap("read", f.path, err)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Read reads from the cursor position.
func (f *File) Read(p []byte) (int, error) { return f.cur.Read(f, p) }

// WriteAt writes p at offset off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	start := f.c.env.Now()
	f.c.chargeFUSE()
	if f.closed.Load() || !f.flags.WantsWrite() {
		return 0, types.ErrBadFD
	}
	of := f.of
	direct, err := f.ensureWritable()
	switch {
	case err != nil:
	case direct:
		err = f.c.tr.WriteAt(of.ino, p, off)
	default:
		err = f.c.data.Write(of.ino, p, off)
	}
	if err != nil {
		return 0, errnoWrap("write", f.path, err)
	}
	of.mu.Lock()
	if end := off + int64(len(p)); end > of.size {
		of.size = end
	}
	of.wrote = true
	of.ver++
	of.mu.Unlock()
	f.c.cBytesWrite.Add(int64(len(p)))
	f.c.opHists["write"].Observe(f.c.env.Now() - start)
	return len(p), nil
}

// Write writes at the cursor (honoring O_APPEND).
func (f *File) Write(p []byte) (int, error) { return f.cur.Write(f, p, f.flags.Has(types.OAppend)) }

// Seek repositions the cursor.
func (f *File) Seek(offset int64, whence int) (int64, error) { return f.cur.Seek(f, offset, whence) }

// ensureWritable acquires the write lease on this client's first write to
// the inode, through whichever handle, and reports whether to write direct.
func (f *File) ensureWritable() (direct bool, err error) {
	c, of := f.c, f.of
	of.mu.Lock()
	direct, write := of.lease.mode()
	of.mu.Unlock()
	if direct || write {
		return direct, nil
	}
	ld, ok := c.ledDirFor(f.parent)
	var resp WriteLeaseResp
	if !ok {
		// File I/O paths carry no caller context.
		req := WriteLeaseReq{Dir: f.parent, Ino: of.ino, Client: c.addr}
		if ld, resp, err = forward[WriteLeaseResp](context.Background(), c, nil, f.parent, req); err != nil {
			return false, err
		}
	}
	direct = resp.Direct
	if ld != nil {
		direct, _ = c.grantLease(ld, of.ino, c.addr, true)
	}
	if direct {
		// The flush broadcast reaches this client too; this covers a lost one.
		return true, c.recall(of.ino)
	}
	c.adopt(of, dataGrant{via: f.parent, write: true}, nil)
	return f.ensureWritable() // settled, direct if a recall has got in since
}

// publish pushes the size and mtime this client's writes gave the inode to
// the parent's leader (a cheap metadata RPC, journaled and batched there), as
// Fsync and Close both do.
func (f *File) publish(ctx context.Context) error {
	of := f.of
	of.mu.Lock()
	size, ver, wrote := of.size, of.ver, of.wrote
	of.mu.Unlock()
	if !wrote {
		return nil
	}
	patch := AttrPatch{SetSize: true, Size: size, SetTimes: true, Mtime: f.c.env.Now()}
	_, err := f.c.setAttrIno(ctx, f.parent, f.name, patch, of.ino)
	of.mu.Lock()
	if err == nil && of.ver == ver {
		of.wrote = false // nothing was written meanwhile
	}
	of.ver++
	of.mu.Unlock()
	return err
}

// Sync flushes cached data and pushes size/mtime to the parent's leader —
// fsync(2) for this handle.
func (f *File) Sync() error { return f.Fsync(context.Background()) }

// Fsync is Sync under the caller's context: its deadline and trace identity
// ride the size/mtime update to the leader, so a cancelled workload stops at
// the metadata forwarding boundary instead of blocking through it.
func (f *File) Fsync(ctx context.Context) error {
	f.c.chargeFUSE()
	if f.closed.Load() {
		return types.ErrBadFD
	}
	if err := f.c.data.Flush(f.of.ino); err != nil {
		return errnoWrap("fsync", f.path, err)
	}
	if err := f.publish(ctx); err != nil {
		return errnoWrap("fsync", f.path, err)
	}
	// Make the metadata durable if we own the journal (durability barrier,
	// not a checkpoint — see Client.fsyncDir).
	if ld, ok := f.c.ledDirFor(f.parent); ok {
		if err := f.c.fsyncDir(f.parent, ld); err != nil {
			return errnoWrap("fsync", f.path, err)
		}
	}
	return nil
}

// Close publishes what this client wrote and drops the descriptor's reference
// on the record: the size reaches the leader now, the data when the record's
// last reference goes (see unref).
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return nil
	}
	err := f.publish(context.Background())
	f.c.unref(f.of)
	return err
}

// DropAllCaches empties the whole data cache (the benchmark "drop caches"
// step between write and read phases).
func (c *Client) DropAllCaches() { c.data.Clear() }

// grantLease is leaseTable.grant and the recalls it asks for, under ld's opMu.
// An open's grant to another client gets seq, a number never given before.
func (c *Client) grantLease(ld *ledDir, ino types.Ino, client rpc.Addr, write bool) (direct bool, seq uint64) {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	if !write && client != c.addr {
		seq = c.grantSeq.Add(1)
	}
	// No other grant may find the file direct before every holder recalled is.
	direct, recall := ld.leases.grant(ino, client, write, seq)
	c.recallHolders(context.Background(), ino, recall)
	return direct, seq
}

// recallHolders sends each holder that leaseTable.grant or takeWriter names a
// FlushCacheReq for ino, one round trip each, and recalls this client in line.
func (c *Client) recallHolders(ctx context.Context, ino types.Ino, recall []rpc.Addr) {
	for _, h := range recall {
		if h == c.addr {
			// A failed flush keeps the entries dirty; FlushAll and Close report it.
			c.recordWBErr(c.recall(ino))
		} else {
			_, _ = c.net.CallFromCtx(ctx, c.addr, h, FlushCacheReq{Ino: ino})
		}
	}
}

// child is node as ld's table has it now; node itself if the table has lost
// it or cannot load it.
func (ld *ledDir) child(node *types.Inode) *types.Inode {
	if cur, err := ld.table.Child(node.Ino); err == nil {
		return cur
	}
	return node
}

// recall is a holder's half of a recall: the record flips first, so nothing
// that starts afterwards caches; a failed flush keeps the entries dirty.
func (c *Client) recall(ino types.Ino) error {
	c.mu.Lock()
	if of := c.open[ino]; of != nil {
		of.mu.Lock()
		c.hold.recall(&of.lease)
		of.mu.Unlock()
	} else {
		c.hold.recall(nil) // a walk whose grant is on its way has no record yet
	}
	c.mu.Unlock()
	err := c.data.Flush(ino)
	if err == nil {
		c.data.Invalidate(ino)
	}
	return err
}
