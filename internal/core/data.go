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
	"arkfs/internal/wire"
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
	offset atomic.Int64 // the cursor of Read, Write and Seek
}

// openFile is the one record a client keeps per inode it has open, in
// Client.open. It owns the client's side of the inode's data lease (paper
// §III-D; the leader's side is leaseTable), the one size this client
// believes, and the close-time write-back. The invariant it keeps: while this
// client has a live handle or dirty cached bytes for the inode, it is in the
// leader's holder set and no release invalidates its cache.
type openFile struct {
	ino    types.Ino
	leased atomic.Bool // set once a leader lists this client as a holder

	// Guarded by Client.mu; once returning is set nothing changes them (giveBack).
	parent    types.Ino           // whose leader the latest Open registered with
	below     []string            // from parent down to the file's directory, if a create never learned it (aim)
	leader    rpc.Addr            // who listed this client last ("": itself); until then, parent's route when the record was made
	grant     uint64              // the highest number leader listed it under
	refs      int                 // live handles and Opens in flight
	returning bool                // the lease is on its way back: the record is dead, Open waits
	returned  *sim.Chan[struct{}] // made by an Open that waits; closed once the lease is back

	mu       sync.Mutex
	size     int64
	ver      uint64 // bumped by every write, truncate and publish through this client
	direct   bool   // lease conflict: no caching, direct object I/O
	hasWrite bool   // holds the exclusive write lease
	wrote    bool   // size/mtime need pushing at Sync/Close
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
	recalls := c.recalls.Load()
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
	// The file existed: check the requested access, then attach. A grant the
	// walk brought is the record's from here on, whatever comes of the open.
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
	var grant *dataGrant
	if granted && c.adopt(f.of, walked.grant, recalls) {
		grant = &walked.grant
	}
	if err == nil {
		err = f.attach(ctx, node, grant)
	}
	if err != nil {
		c.unref(f.of)
		return nil, op.end(errnoWrap("open", path, err))
	}
	return f, op.end(nil)
}

// created settles w.made, the record Open took for the inode its create would
// make before the walk left, so that a recall overtaking the answer finds it.
// If the walk made the inode, the leader granted its data lease with it
// (DESIGN.md §5.7) and the record holds it for the handle. A file that existed
// and a refusal drop it silently; a walk that got no answer may have made the
// file, and the record returns the lease to where that walk went (aim).
func (c *Client) created(w *ride, res resolved, err error) *openFile {
	of := w.made
	if err != nil || res.node == nil || res.node.Ino != of.ino || !w.leased {
		of.leased.Store(err != nil && w.lost)
		c.unref(of)
		return nil
	}
	c.mu.Lock()
	of.parent, of.below = res.parent, nil
	c.mu.Unlock()
	c.adopt(of, w.grant, 0)
	if w.write {
		c.data.Created(of.ino)
		of.mu.Lock()
		of.hasWrite = !of.direct
		of.mu.Unlock()
	}
	return of
}

// aim points of, the record of a create about to ride a walk from dir with
// names, at where that walk goes: if no answer comes, the create may have been
// made below dir, and its lease listed at dir's leader.
func (c *Client) aim(of *openFile, dir types.Ino, names []string) {
	c.mu.Lock()
	of.parent, of.below, of.leader = dir, names[:len(names)-1], c.remote[dir]
	c.mu.Unlock()
}

// Create is the creat(2) shorthand: O_WRONLY|O_CREATE|O_TRUNC.
func (c *Client) Create(ctx context.Context, path string, mode types.Mode) (*File, error) {
	return c.Open(ctx, path, types.OWronly|types.OCreate|types.OTrunc, mode)
}

// ref takes a reference on ino's record for an Open, making the record if the
// client has none. A record whose last Close is still writing back is adopted
// as it stands, cache and lease included, and that release stands down when
// it sees the reference: Open never waits for a write-back PUT. It waits only
// for a lease return already decided, and only for that one message, so that
// its walk cannot overtake the CloseFileReq and have the leader drop a holder
// that has a live handle.
func (c *Client) ref(parent, ino types.Ino) *openFile {
	c.mu.Lock()
	for {
		of := c.open[ino]
		if of == nil {
			of = &openFile{ino: ino, leader: c.remote[parent]}
			c.open[ino] = of
		}
		if !of.returning {
			of.parent, of.below = parent, nil
			of.refs++
			c.mu.Unlock()
			return of
		}
		if of.returned == nil {
			of.returned = sim.NewChan[struct{}](c.env)
		}
		returned := of.returned
		c.mu.Unlock()
		returned.Recv()
		c.mu.Lock()
	}
}

// unref drops a reference; the last one out releases the record. close(2)
// does not fsync: dirty data is written back in the background, and the data
// lease is held until that completes, so any new reader triggers a recall
// (flush broadcast) first and never sees stale objects. On failure the
// entries stay dirty and resident, the error is recorded for FlushAll/Close,
// and the lease is kept so the data cannot be invalidated out from under the
// pending retry. A clean close decides the release here and waits for nothing:
// the message that returns the lease to a remote leader leaves on a goroutine.
func (c *Client) unref(of *openFile) {
	c.mu.Lock()
	of.refs--
	last := of.refs == 0
	c.mu.Unlock()
	switch {
	case !last: // another handle shares the data lease; keep it (and the cache)
	case c.data.Dirty(of.ino):
		c.env.Go(func() {
			if err := c.data.Flush(of.ino); err != nil {
				c.recordWBErr(err)
				return
			}
			if c.release(of) {
				c.giveBack(of)
			}
		})
	default:
		if c.release(of) {
			c.env.Go(func() { c.giveBack(of) })
		}
	}
}

// release invalidates the inode's cache and gives its data lease back, if at
// this moment the record is still unreferenced and clean. A handle that came
// since the last Close keeps both, and its own last Close releases in turn.
// The decision is made here, in one hold of Client.mu. A record no leader
// listed, or one this client lists itself, is finished before release returns;
// for a remote leader's what remains is one message, and release reports that
// its caller has giveBack to run. Until that message is answered the record
// stays, returning, and an Open of the inode waits (ref).
func (c *Client) release(of *openFile) (remote bool) {
	c.mu.Lock()
	if of.refs > 0 || of.returning || c.data.Dirty(of.ino) {
		c.mu.Unlock()
		return false
	}
	// Giving the lease back forfeits the right to cache: a later open must
	// not trust entries that predate other clients' writes.
	c.data.Invalidate(of.ino)
	of.returning = true
	ld, leads := c.ledLocked(of.parent)
	leased := of.leased.Load() // else every Open failed before a leader listed this client
	if leased && !leads && of.leader != "" {
		c.returns++
		if of.grant > c.returned[of.leader] {
			c.returned[of.leader] = of.grant
		}
		c.mu.Unlock()
		return true
	}
	c.mu.Unlock()
	if leased && leads {
		c.releaseData(ld, of.ino, c.addr, of.grant)
	}
	c.mu.Lock()
	c.forget(of)
	c.mu.Unlock()
	return false
}

// giveBack sends the message release left: the CloseFileReq of a returning
// record, whose fields nothing changes any more. It goes to the process that
// listed this client and nowhere else: asking the lease manager who leads the
// directory now could end with this client leading it, to tell itself a lease
// is back, and a new leader never had the entry. Best effort: if the call
// fails the leader keeps a stale holder entry until its own lease on the
// directory turns over.
func (c *Client) giveBack(of *openFile) {
	_, _ = c.net.CallFrom(c.addr, of.leader, CloseFileReq{Dir: of.parent, Below: of.below, Ino: of.ino, Client: c.addr, Grant: of.grant})
	c.mu.Lock()
	c.forget(of)
	if c.returns--; c.returns == 0 && c.quiet != nil {
		c.quiet.Close()
		c.quiet = nil
	}
	c.mu.Unlock()
}

// forget ends a release, under Client.mu: the record is gone and whoever
// waited for its lease to be back goes on.
func (c *Client) forget(of *openFile) {
	delete(c.open, of.ino)
	if of.returned != nil {
		of.returned.Close()
	}
}

// awaitReturns waits until no lease return is on its way to a remote leader.
func (c *Client) awaitReturns() {
	c.mu.Lock()
	if c.returns == 0 {
		c.mu.Unlock()
		return
	}
	if c.quiet == nil {
		c.quiet = sim.NewChan[struct{}](c.env)
	}
	quiet := c.quiet
	c.mu.Unlock()
	quiet.Recv()
}

// dataGrant is one listing of this client for a file's data lease, as the
// WalkResp of the walk that carried the open reports it.
type dataGrant struct {
	via    types.Ino // the directory whose route the message took: its leader listed, this client if it has none
	seq    uint64    // that leader's number for the listing
	direct bool      // the file is in direct mode
}

// adopt makes of the owner of grant g: whatever becomes of the Open that got
// it, the record's release gives it back. For the grant of the walk that found
// the file it also reports whether g still says what its leader holds (after
// attach's walk or a create there is nothing to ask: the record was there
// before the request left, so a recall found it and no return could be
// decided). That walk learns its inode from the answer. A recall that
// overtook the answer found no record to flip (recalls is the caller's reading
// of Client.recalls from before the walk), and a return decided meanwhile may
// reach the leader after the grant, or have taken a newer grant with it: the
// leader drops a return older than the listing it holds, and a grant no newer
// than one already given back to its leader is not believed here. The caller
// then asks again (attach), behind all of that.
func (c *Client) adopt(of *openFile, g dataGrant, recalls uint64) (current bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if leader := c.remote[g.via]; leader != of.leader {
		of.leader, of.grant = leader, 0 // another leader's numbers
	}
	if g.seq > of.grant {
		of.grant = g.seq
	}
	of.leased.Store(true)
	return c.recalls.Load() == recalls && g.seq > c.returned[of.leader]
}

// attach registers the data lease at the parent's leader, unless the walk has
// (walked, with node as that leader had it after the grant), brings the record
// up to date with the answer, and applies O_TRUNC and O_APPEND.
func (f *File) attach(ctx context.Context, node *types.Inode, walked *dataGrant) error {
	of := f.of
	of.mu.Lock()
	ver := of.ver
	of.mu.Unlock()
	grant, size := walked, node.Size
	// A walk was under way before this record was known: if a size has gone
	// through the record since it was made, the walk's may be the older one.
	if grant == nil || ver != 0 {
		g, fresh, err := f.c.openDataLease(ctx, f.parent, f.name, node, f.flags.WantsWrite())
		if err != nil {
			return err
		}
		f.c.adopt(of, g, 0)
		grant, size = &g, fresh
	}
	of.mu.Lock()
	of.direct = of.direct || grant.direct
	// The leader's size is the fresher one (close-to-open) unless this client
	// has bytes it has not published, or changed or published the size while
	// the request was in flight: the answer may predate that.
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
		f.offset.Store(size)
	}
	return nil
}

// openDataLease registers a read lease for node at the parent's leader and
// returns the grant plus the file's current size. A remote leader is sent a
// one-name walk that carries the open: an answer without a grant fails it
// with the walk's error, or ENOENT if name now leads to another inode.
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
			var fresh *types.Inode
			if len(resp.Inodes) == 1 {
				fresh, err = wire.DecodeInode(resp.Inodes[0])
			}
			switch {
			case err != nil:
				return dataGrant{}, 0, err
			case fresh == nil || fresh.Ino != node.Ino:
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
	size, direct := of.size, of.direct
	of.mu.Unlock()

	var n int
	var err error
	if direct {
		n, err = f.c.tr.ReadAt(of.ino, p, off, size)
	} else {
		n, err = f.c.data.Read(of.ino, p, off, size)
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
	off := f.offset.Load()
	n, err := f.ReadAt(p, off)
	f.offset.Store(off + int64(n))
	return n, err
}

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
	f.c.tenants.AddBytes(f.c.opts.Tenant, 0, int64(len(p)))
	f.c.opHists["write"].Observe(f.c.env.Now() - start)
	return len(p), nil
}

// Write writes at the cursor (honoring O_APPEND).
func (f *File) Write(p []byte) (int, error) {
	off := f.offset.Load()
	if f.flags.Has(types.OAppend) {
		off = f.Size()
	}
	n, err := f.WriteAt(p, off)
	f.offset.Store(off + int64(n))
	return n, err
}

// Seek repositions the cursor.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.offset.Load()
	case io.SeekEnd:
		base = f.Size()
	default:
		return 0, types.ErrInval
	}
	if base+offset < 0 {
		return 0, types.ErrInval
	}
	f.offset.Store(base + offset)
	return base + offset, nil
}

// ensureWritable acquires the exclusive write lease on this client's first
// write to the inode, through whichever handle, and reports whether to write
// direct: a conflict flips this record (and everyone else's) to direct I/O.
func (f *File) ensureWritable() (direct bool, err error) {
	c, of := f.c, f.of
	of.mu.Lock()
	settled, direct := of.hasWrite || of.direct, of.direct
	of.mu.Unlock()
	if settled {
		return direct, nil
	}
	ld, ok := c.ledDirFor(f.parent)
	var resp WriteLeaseResp
	if !ok {
		// File I/O paths carry no caller context, so the upgrade mints its
		// own retry budget.
		ctx := context.Background()
		if c.opts.OpBudget > 0 {
			ctx = rpc.WithBudget(ctx, rpc.Meta{}, c.opts.OpBudget)
		}
		req := WriteLeaseReq{Dir: f.parent, Ino: of.ino, Client: c.addr}
		if ld, resp, err = forward[WriteLeaseResp](ctx, c, nil, f.parent, req); err != nil {
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
	of.mu.Lock()
	of.hasWrite = true
	direct = of.direct // a recall may have got in since the grant
	of.mu.Unlock()
	return direct, nil
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

// --- leader-side data lease service ------------------------------------------

// grantLease is leaseTable.grant under ld's opMu, followed by the recalls it
// asks for, one round trip each. An open's grant to another client (not a
// write upgrade, and not this client's own, which no message carries) gets
// seq, a number no earlier grant of this leader has.
func (c *Client) grantLease(ld *ledDir, ino types.Ino, client rpc.Addr, write bool) (direct bool, seq uint64) {
	ld.opMu.Lock()
	if !write && client != c.addr {
		seq = c.grantSeq.Add(1)
	}
	direct, recall := ld.leases.grant(ino, client, write, seq)
	ld.opMu.Unlock()
	for _, h := range recall {
		if h == c.addr {
			c.recordWBErr(c.recall(ino))
		} else {
			_, _ = c.net.CallFrom(c.addr, h, FlushCacheReq{Ino: ino})
		}
	}
	return direct, seq
}

// releaseData is leaseTable.release under ld's opMu.
func (c *Client) releaseData(ld *ledDir, ino types.Ino, client rpc.Addr, grant uint64) {
	ld.opMu.Lock()
	ld.leases.release(ino, client, grant)
	ld.opMu.Unlock()
}

// child is node as ld's table has it now; node itself if the table has lost it.
func (ld *ledDir) child(node *types.Inode) *types.Inode {
	if cur, ok := ld.table.Child(node.Ino); ok {
		return cur
	}
	return node
}

// recall is a holder's half of a lease conflict, run for a FlushCacheReq and
// when the leader recalls itself. The record flips first, so no request that
// starts afterwards caches again. Invalidate only after a successful flush: a
// failed write-back keeps the entries dirty for a later retry instead of
// dropping them, and the caller records the error for FlushAll/Close or
// returns it on the wire.
func (c *Client) recall(ino types.Ino) error {
	c.mu.Lock()
	c.recalls.Add(1) // a walk whose grant is still on its way has no record yet (adopt)
	of := c.open[ino]
	c.mu.Unlock()
	if of != nil {
		of.mu.Lock()
		of.direct, of.hasWrite = true, false
		of.mu.Unlock()
	}
	err := c.data.Flush(ino)
	if err == nil {
		c.data.Invalidate(ino)
	}
	return err
}
