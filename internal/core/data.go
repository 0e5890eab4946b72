package core

import (
	"context"
	"io"
	"sync"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// File is an open ArkFS file handle. It carries a read data lease by
// default; the first write upgrades it to an exclusive write lease unless
// another client also holds a lease, in which case every holder's cache is
// flushed and the file switches to direct object I/O (paper §III-D).
type File struct {
	c      *Client
	path   string
	parent types.Ino
	ino    types.Ino
	flags  types.OpenFlag

	mu       sync.Mutex
	size     int64
	offset   int64
	direct   bool
	hasWrite bool // holds the exclusive write lease
	wrote    bool // size/mtime need pushing at Sync/Close
	closed   bool
}

// Open opens (and with OCreate, creates) a file.
func (c *Client) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (*File, error) {
	ctx, op := c.startOp(ctx, "open", path)
	c.chargeFUSE()
	res, err := c.resolvePath(ctx, path, true)
	if err != nil {
		return nil, op.end(errnoWrap("open", path, err))
	}
	if res.name == "" {
		return nil, op.end(errnoWrap("open", path, types.ErrIsDir))
	}
	node := res.node
	if node == nil {
		if !flags.Has(types.OCreate) {
			return nil, op.end(errnoWrap("open", path, types.ErrNotExist))
		}
		node, err = c.create(ctx, res.parent, CreateReq{
			Dir: res.parent, Name: res.name, Type: types.TypeRegular,
			Mode: mode, Cred: c.opts.Cred, NewIno: c.inoSrc.Next(),
			Exclusive: flags.Has(types.OExcl),
		})
		if err != nil {
			return nil, op.end(errnoWrap("open", path, err))
		}
	} else {
		if flags.Has(types.OCreate) && flags.Has(types.OExcl) {
			return nil, op.end(errnoWrap("open", path, types.ErrExist))
		}
		if node.IsDir() {
			return nil, op.end(errnoWrap("open", path, types.ErrIsDir))
		}
	}
	// Access-mode permission checks against the (possibly fresh) inode.
	if flags.WantsRead() {
		if err := node.Access(c.opts.Cred, types.MayRead); err != nil {
			return nil, op.end(errnoWrap("open", path, err))
		}
	}
	if flags.WantsWrite() {
		if err := node.Access(c.opts.Cred, types.MayWrite); err != nil {
			return nil, op.end(errnoWrap("open", path, err))
		}
	}
	// Register the data read lease with the parent's leader.
	direct, size, err := c.openDataLease(ctx, res.parent, res.name, node, flags.WantsWrite())
	if err != nil {
		return nil, op.end(errnoWrap("open", path, err))
	}
	f := &File{
		c: c, path: path, parent: res.parent, ino: node.Ino,
		flags: flags, size: size, direct: direct,
	}
	if flags.Has(types.OTrunc) && flags.WantsWrite() && f.size > 0 {
		if err := f.truncate(0); err != nil {
			return nil, op.end(errnoWrap("open", path, err))
		}
	}
	if flags.Has(types.OAppend) {
		f.offset = f.size
	}
	c.mu.Lock()
	if c.handles[f.ino] == nil {
		c.handles[f.ino] = make(map[*File]bool)
	}
	c.handles[f.ino][f] = true
	c.mu.Unlock()
	return f, op.end(nil)
}

// Create is the creat(2) shorthand: O_WRONLY|O_CREATE|O_TRUNC.
func (c *Client) Create(ctx context.Context, path string, mode types.Mode) (*File, error) {
	return c.Open(ctx, path, types.OWronly|types.OCreate|types.OTrunc, mode)
}

// openDataLease registers a read lease at the parent's leader and returns
// whether the file is in direct-I/O mode plus its current size.
func (c *Client) openDataLease(ctx context.Context, parent types.Ino, name string, node *types.Inode, write bool) (bool, int64, error) {
	ld, ok := c.ledDirFor(parent)
	if !ok {
		var resp OpenResp
		var err error
		req := OpenReq{Dir: parent, Name: name, Cred: c.opts.Cred, Client: c.addr, Write: write}
		if ld, resp, err = forward[OpenResp](ctx, c, nil, parent, req); err != nil {
			return false, 0, err
		}
		if ld == nil {
			fresh, err := wire.DecodeInode(resp.Inode)
			if err != nil {
				return false, 0, err
			}
			return resp.Direct, fresh.Size, nil
		}
	}
	direct := c.grantRead(ld, node.Ino, c.addr)
	// Leader's table has the freshest size.
	if cur, ok := ld.table.Child(node.Ino); ok {
		return direct, cur.Size, nil
	}
	return direct, node.Size, nil
}

// Size returns the handle's view of the file size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Ino returns the file's inode number.
func (f *File) Ino() types.Ino { return f.ino }

// ReadAt reads len(p) bytes at offset off, returning io.EOF at end of file.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	start := f.c.env.Now()
	f.c.chargeFUSE()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return 0, types.ErrBadFD
	}
	if !f.flags.WantsRead() {
		f.mu.Unlock()
		return 0, types.ErrBadFD
	}
	size, direct := f.size, f.direct
	f.mu.Unlock()

	var n int
	var err error
	if direct {
		n, err = f.c.tr.ReadAt(f.ino, p, off, size)
	} else {
		n, err = f.c.data.Read(f.ino, p, off, size)
	}
	f.c.cBytesRead.Add(int64(n))
	f.c.tenants.AddBytes(f.c.opts.Tenant, int64(n), 0)
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
func (f *File) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.offset = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// WriteAt writes p at offset off.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	start := f.c.env.Now()
	f.c.chargeFUSE()
	f.mu.Lock()
	if f.closed || !f.flags.WantsWrite() {
		f.mu.Unlock()
		return 0, types.ErrBadFD
	}
	f.mu.Unlock()
	if err := f.ensureWritable(); err != nil {
		return 0, errnoWrap("write", f.path, err)
	}
	f.mu.Lock()
	direct := f.direct
	f.mu.Unlock()

	var err error
	if direct {
		err = f.c.tr.WriteAt(f.ino, p, off)
	} else {
		err = f.c.data.Write(f.ino, p, off)
	}
	if err != nil {
		return 0, errnoWrap("write", f.path, err)
	}
	f.mu.Lock()
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.wrote = true
	f.mu.Unlock()
	f.c.cBytesWrite.Add(int64(len(p)))
	f.c.tenants.AddBytes(f.c.opts.Tenant, 0, int64(len(p)))
	f.c.opHists["write"].Observe(f.c.env.Now() - start)
	return len(p), nil
}

// Write writes at the cursor (honoring O_APPEND).
func (f *File) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	if f.flags.Has(types.OAppend) {
		off = f.size
	}
	f.mu.Unlock()
	n, err := f.WriteAt(p, off)
	f.mu.Lock()
	f.offset = off + int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek repositions the cursor.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.offset
	case io.SeekEnd:
		base = f.size
	default:
		return 0, types.ErrInval
	}
	if base+offset < 0 {
		return 0, types.ErrInval
	}
	f.offset = base + offset
	return f.offset, nil
}

// ensureWritable acquires the exclusive write lease on first write; a
// conflict flips the handle (and everyone else's) to direct I/O.
func (f *File) ensureWritable() error {
	f.mu.Lock()
	if f.hasWrite || f.direct {
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()

	c := f.c
	ld, ok := c.ledDirFor(f.parent)
	var resp WriteLeaseResp
	if !ok {
		// File I/O paths carry no caller context, so the upgrade mints its
		// own retry budget.
		ctx := c.withOpBudget(context.Background())
		var err error
		req := WriteLeaseReq{Dir: f.parent, Ino: f.ino, Client: c.addr}
		if ld, resp, err = forward[WriteLeaseResp](ctx, c, nil, f.parent, req); err != nil {
			return err
		}
	}
	direct := resp.Direct
	if ld != nil {
		direct = c.upgradeWrite(ld, f.ino, c.addr)
	}
	f.mu.Lock()
	if direct {
		f.direct = true
	} else {
		f.hasWrite = true
	}
	f.mu.Unlock()
	if direct {
		// Push anything we cached before the conflict, then bypass.
		if err := c.data.Flush(f.ino); err != nil {
			return err
		}
		c.data.Invalidate(f.ino)
	}
	return nil
}

// truncate implements O_TRUNC and Ftruncate through the parent's leader.
func (f *File) truncate(size int64) error {
	res, err := f.c.setAttrIno(context.Background(), f.parent, f.baseName(), AttrPatch{SetSize: true, Size: size}, false)
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.size = res.Size
	f.mu.Unlock()
	f.c.data.Invalidate(f.ino)
	return nil
}

// baseName extracts the final path component.
func (f *File) baseName() string {
	_, name, err := types.SplitDir(f.path)
	if err != nil {
		return ""
	}
	return name
}

// Sync flushes cached data and pushes size/mtime to the parent's leader —
// fsync(2) for this handle.
func (f *File) Sync() error { return f.Fsync(context.Background()) }

// Fsync is Sync under the caller's context: its deadline and trace identity
// ride the size/mtime update to the leader, so a cancelled workload stops at
// the metadata forwarding boundary instead of blocking through it.
func (f *File) Fsync(ctx context.Context) error {
	f.c.chargeFUSE()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return types.ErrBadFD
	}
	size, wrote := f.size, f.wrote
	f.mu.Unlock()
	if err := f.c.data.Flush(f.ino); err != nil {
		return errnoWrap("fsync", f.path, err)
	}
	if wrote {
		patch := AttrPatch{SetSize: true, Size: size, SetTimes: true, Mtime: f.c.env.Now()}
		if _, err := f.c.setAttrIno(ctx, f.parent, f.baseName(), patch, true); err != nil {
			return errnoWrap("fsync", f.path, err)
		}
		f.mu.Lock()
		f.wrote = false
		f.mu.Unlock()
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

// Close syncs written state and releases the data lease.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	wrote := f.wrote
	f.mu.Unlock()

	// close(2) does not fsync: the size reaches the leader now (a cheap
	// metadata RPC, journaled and batched there), while dirty data stays in
	// the write-back cache and is flushed in the background. The data lease
	// is held until that flush completes, so any new reader triggers a
	// recall (flush broadcast) first and never sees stale objects.
	var err error
	if wrote {
		f.mu.Lock()
		size := f.size
		f.mu.Unlock()
		patch := AttrPatch{SetSize: true, Size: size, SetTimes: true, Mtime: f.c.env.Now()}
		if _, serr := f.c.setAttrIno(context.Background(), f.parent, f.baseName(), patch, true); serr != nil {
			err = serr
		}
		f.mu.Lock()
		f.wrote = false
		f.mu.Unlock()
	}
	f.mu.Lock()
	f.closed = true
	size := f.size
	f.mu.Unlock()

	c := f.c
	c.mu.Lock()
	if hs := c.handles[f.ino]; hs != nil {
		delete(hs, f)
		if len(hs) == 0 {
			delete(c.handles, f.ino)
		}
	}
	c.mu.Unlock()
	_ = size
	c.mu.Lock()
	stillOpen := len(c.handles[f.ino]) > 0
	c.mu.Unlock()
	if stillOpen {
		// Another handle shares the data lease; keep it (and the cache).
		return err
	}
	release := func() {
		// Giving the lease back forfeits the right to cache: a later open
		// must not trust entries that predate other clients' writes.
		c.data.Invalidate(f.ino)
		if ld, ok := c.ledDirFor(f.parent); ok {
			c.releaseData(ld, f.ino, c.addr)
			return
		}
		// Best effort: if this fails the leader keeps a stale holder entry
		// until its own lease on the directory turns over.
		ctx := context.Background()
		if leader, err := c.remoteLeaderHint(ctx, f.parent); err == nil {
			_, _ = c.callLeader(ctx, leader, f.parent, CloseFileReq{Dir: f.parent, Ino: f.ino, Client: c.addr})
		}
	}
	if c.data.Dirty(f.ino) {
		// Background write-back; release the data lease only afterwards. On
		// failure the entries stay dirty and resident, the error is recorded
		// for FlushAll/Close, and the lease is kept so the data cannot be
		// invalidated out from under the pending retry.
		c.env.Go(func() {
			if ferr := c.data.Flush(f.ino); ferr != nil {
				c.recordWBErr(ferr)
				return
			}
			release()
		})
	} else {
		release()
	}
	return err
}

// DropCaches empties this client's data cache (the benchmark "drop caches"
// step between write and read phases).
func (c *Client) DropCaches(inos ...types.Ino) {
	for _, ino := range inos {
		c.data.Invalidate(ino)
	}
}

// DropAllCaches empties the whole data cache.
func (c *Client) DropAllCaches() { c.data.Clear() }

// --- leader-side data lease service ------------------------------------------

// grantRead registers a read lease for client on a child file of a led
// directory and reports whether the file is in direct mode. If another
// client holds the write lease, its cache is recalled (flush broadcast)
// first and the file falls to direct mode — the paper's conflict rule.
func (c *Client) grantRead(ld *ledDir, ino types.Ino, client rpc.Addr) bool {
	ld.opMu.Lock()
	dl := ld.dataLeases[ino]
	if dl == nil {
		dl = &dataLease{readers: make(map[rpc.Addr]bool)}
		ld.dataLeases[ino] = dl
	}
	writer := dl.writer
	if writer != "" && writer != client {
		dl.direct = true
		dl.writer = ""
	}
	dl.readers[client] = true
	direct := dl.direct
	ld.opMu.Unlock()

	if writer != "" && writer != client {
		if writer == c.addr {
			// Invalidate only after a successful flush: a failed write-back
			// keeps the entries dirty for a later retry instead of dropping
			// them, and the error is recorded for FlushAll/Close.
			if ferr := c.data.Flush(ino); ferr != nil {
				c.recordWBErr(ferr)
			} else {
				c.data.Invalidate(ino)
			}
			c.markHandlesDirect(ino)
		} else {
			_, _ = c.net.CallFrom(c.addr, writer, FlushCacheReq{Ino: ino})
		}
	}
	return direct
}

// upgradeWrite grants the exclusive write lease to client if it is the only
// lease holder; otherwise it broadcasts cache flushes and switches the file
// to direct mode (paper §III-D).
func (c *Client) upgradeWrite(ld *ledDir, ino types.Ino, client rpc.Addr) (direct bool) {
	ld.opMu.Lock()
	dl := ld.dataLeases[ino]
	if dl == nil {
		dl = &dataLease{readers: make(map[rpc.Addr]bool)}
		ld.dataLeases[ino] = dl
		dl.readers[client] = true
	}
	if dl.direct {
		ld.opMu.Unlock()
		return true
	}
	exclusive := dl.writer == "" || dl.writer == client
	for r := range dl.readers {
		if r != client {
			exclusive = false
		}
	}
	if exclusive {
		dl.writer = client
		ld.opMu.Unlock()
		return false
	}
	// Conflict: flush everyone, go direct.
	dl.direct = true
	dl.writer = ""
	holders := make([]rpc.Addr, 0, len(dl.readers))
	for r := range dl.readers {
		holders = append(holders, r)
	}
	ld.opMu.Unlock()
	for _, h := range holders {
		if h == c.addr {
			if ferr := c.data.Flush(ino); ferr != nil {
				c.recordWBErr(ferr)
			} else {
				c.data.Invalidate(ino)
			}
			c.markHandlesDirect(ino)
			continue
		}
		_, _ = c.net.CallFrom(c.addr, h, FlushCacheReq{Ino: ino})
	}
	return true
}

// releaseData drops client's lease on ino; when the last holder leaves, the
// direct flag clears so future opens may cache again.
func (c *Client) releaseData(ld *ledDir, ino types.Ino, client rpc.Addr) {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	dl := ld.dataLeases[ino]
	if dl == nil {
		return
	}
	delete(dl.readers, client)
	if dl.writer == client {
		dl.writer = ""
	}
	if len(dl.readers) == 0 {
		delete(ld.dataLeases, ino)
	}
}

func (c *Client) serveOpen(ld *ledDir, r OpenReq) OpenResp {
	node, err := c.localStat(ld, StatReq{Dir: r.Dir, Name: r.Name, Cred: r.Cred})
	if err != nil {
		return OpenResp{Err: errString(err)}
	}
	want := uint8(types.MayRead)
	if r.Write {
		want = types.MayWrite
	}
	if err := node.Access(r.Cred, want); err != nil {
		return OpenResp{Err: errString(err)}
	}
	direct := c.grantRead(ld, node.Ino, r.Client)
	return OpenResp{Inode: wire.EncodeInode(node), Direct: direct}
}

func (c *Client) serveCloseFile(ctx context.Context, ld *ledDir, r CloseFileReq) CloseFileResp {
	c.releaseData(ld, r.Ino, r.Client)
	if r.SetSize {
		if _, err := c.localSetAttr(ctx, ld, r.Dir, SetAttrReq{
			Dir: r.Dir, Name: c.nameOf(ld, r.Ino), Cred: types.Root, Implicit: true,
			Patch: AttrPatch{SetSize: true, Size: r.Size, SetTimes: true, Mtime: r.Mtime},
		}); err != nil {
			return CloseFileResp{Err: errString(err)}
		}
	}
	return CloseFileResp{}
}

// nameOf finds the dentry name of a child inode (linear scan; used on the
// rare remote-close-with-size path).
func (c *Client) nameOf(ld *ledDir, ino types.Ino) string {
	for _, de := range ld.table.List() {
		if de.Ino == ino {
			return de.Name
		}
	}
	return ""
}

func (c *Client) serveFlushCache(r FlushCacheReq) FlushCacheResp {
	if err := c.data.Flush(r.Ino); err != nil {
		return FlushCacheResp{Err: errString(err)}
	}
	c.data.Invalidate(r.Ino)
	c.markHandlesDirect(r.Ino)
	return FlushCacheResp{}
}

// markHandlesDirect flips this client's open handles on ino to direct I/O.
func (c *Client) markHandlesDirect(ino types.Ino) {
	c.mu.Lock()
	handles := c.handles[ino]
	c.mu.Unlock()
	for f := range handles {
		f.mu.Lock()
		f.direct = true
		f.hasWrite = false
		f.mu.Unlock()
	}
}
