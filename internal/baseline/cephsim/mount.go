package cephsim

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/fsapi"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// MountOptions configures one CephFS client.
type MountOptions struct {
	// FUSE selects the FUSE mount: a per-request context-switch cost and the
	// small 128 KiB default read-ahead. The kernel mount pays neither.
	FUSE bool
	// FUSEOverhead is the per-request cost when FUSE is true.
	FUSEOverhead time.Duration
	// Net models the client↔MDS link.
	Net sim.NetModel
	// Cache configures the client page cache (entry size, capacity); the
	// read-ahead default depends on the mount type when left zero.
	Cache cache.Config
	// Cred is the caller identity.
	Cred types.Cred
}

// Mount is one CephFS client; it implements fsapi.FileSystem.
type Mount struct {
	c    *Cluster
	env  sim.Env
	opts MountOptions
	data *cache.Cache
	tr   *prt.Translator

	mu     sync.Mutex
	dcache map[string]*types.Inode // path -> directory inode (traversal cache)
	seq    atomic.Uint64
}

// NewMount attaches a client to the cluster.
func (c *Cluster) NewMount(opts MountOptions) *Mount {
	if opts.Cache.MaxReadahead == 0 {
		if opts.FUSE {
			opts.Cache.MaxReadahead = 128 << 10 // FUSE default max read-ahead
		} else {
			opts.Cache.MaxReadahead = 8 << 20 // kernel mount
		}
	}
	if opts.FUSE && opts.FUSEOverhead == 0 {
		opts.FUSEOverhead = 8 * time.Microsecond
	}
	m := &Mount{
		c:      c,
		env:    c.env,
		opts:   opts,
		tr:     c.tr,
		dcache: make(map[string]*types.Inode),
	}
	m.data = cache.New(c.env, c.tr, opts.Cache)
	return m
}

func (m *Mount) charge() {
	if m.opts.FUSE && m.opts.FUSEOverhead > 0 {
		m.env.Sleep(m.opts.FUSEOverhead)
	}
}

// call sends one op to the authoritative MDS, charging the network.
func (m *Mount) call(op mdsOp) (mdsResp, error) {
	op.Cred = m.opts.Cred
	op.Seq = m.seq.Add(1)
	m.c.inFlight.Add(1)
	defer m.c.inFlight.Add(-1)
	m.env.Sleep(m.opts.Net.TransferTime(0))
	resp, err := m.c.net.Call(m.c.mdsAddr(m.c.authority(op.Dir)), op)
	if err != nil {
		return mdsResp{}, err
	}
	m.env.Sleep(m.opts.Net.TransferTime(0))
	r := resp.(mdsResp)
	if r.Err != "" {
		return r, wireErr(r.Err)
	}
	return r, nil
}

// resolveDir walks to the parent of path, caching directory inodes (the
// kernel dcache / FUSE entry cache both do this).
func (m *Mount) resolveDir(parts []string) (types.Ino, error) {
	cur := types.RootIno
	prefix := ""
	for _, name := range parts {
		prefix += "/" + name
		var node *types.Inode
		ok := false
		if !m.opts.FUSE {
			// Kernel mounts hold dentry caps and resolve from the dcache;
			// the FUSE daemon revalidates every component at the MDS, which
			// is a large part of why ceph-fuse trails the kernel client.
			m.mu.Lock()
			node, ok = m.dcache[prefix]
			m.mu.Unlock()
		}
		if !ok {
			resp, err := m.call(mdsOp{Kind: opLookup, Dir: cur, Name: name})
			if err != nil {
				return types.NilIno, err
			}
			node = resp.Inode
			if node.IsDir() {
				m.mu.Lock()
				m.dcache[prefix] = node
				m.mu.Unlock()
			}
		}
		if !node.IsDir() {
			return types.NilIno, types.ErrNotDir
		}
		cur = node.Ino
	}
	return cur, nil
}

func (m *Mount) parentOf(path string) (types.Ino, string, error) {
	dirParts, name, err := types.SplitDir(path)
	if err != nil {
		return types.NilIno, "", err
	}
	dir, err := m.resolveDir(dirParts)
	return dir, name, err
}

// Mkdir implements fsapi.FileSystem.
func (m *Mount) Mkdir(ctx context.Context, path string, mode types.Mode) error {
	m.charge()
	dir, name, err := m.parentOf(path)
	if err != nil {
		return err
	}
	_, err = m.call(mdsOp{Kind: opMkdir, Dir: dir, Name: name, Mode: mode, FType: types.TypeDir})
	return err
}

// Stat implements fsapi.FileSystem.
func (m *Mount) Stat(ctx context.Context, path string) (*types.Inode, error) {
	m.charge()
	parts, err := types.SplitPath(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		resp, err := m.call(mdsOp{Kind: opStat, Dir: types.RootIno})
		if err != nil {
			return nil, err
		}
		return resp.Inode, nil
	}
	dir, err := m.resolveDir(parts[:len(parts)-1])
	if err != nil {
		return nil, err
	}
	resp, err := m.call(mdsOp{Kind: opStat, Dir: dir, Name: parts[len(parts)-1]})
	if err != nil {
		return nil, err
	}
	return resp.Inode, nil
}

// Unlink implements fsapi.FileSystem.
func (m *Mount) Unlink(ctx context.Context, path string) error {
	m.charge()
	dir, name, err := m.parentOf(path)
	if err != nil {
		return err
	}
	resp, err := m.call(mdsOp{Kind: opUnlink, Dir: dir, Name: name})
	if err != nil {
		return err
	}
	if resp.Inode != nil && resp.Inode.Size > 0 {
		m.data.Invalidate(resp.Inode.Ino)
		return m.tr.DeleteData(resp.Inode.Ino, resp.Inode.Size)
	}
	return nil
}

// Rmdir implements fsapi.FileSystem.
func (m *Mount) Rmdir(ctx context.Context, path string) error {
	m.charge()
	dir, name, err := m.parentOf(path)
	if err != nil {
		return err
	}
	if _, err := m.call(mdsOp{Kind: opRmdir, Dir: dir, Name: name}); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.dcache, "/"+name) // coarse invalidation for top-level removals
	m.mu.Unlock()
	return nil
}

// Rename implements fsapi.FileSystem.
func (m *Mount) Rename(ctx context.Context, src, dst string) error {
	m.charge()
	sdir, sname, err := m.parentOf(src)
	if err != nil {
		return err
	}
	ddir, dname, err := m.parentOf(dst)
	if err != nil {
		return err
	}
	_, err = m.call(mdsOp{Kind: opRename, Dir: sdir, Name: sname, Dir2: ddir, NewName: dname})
	return err
}

// Readdir implements fsapi.FileSystem.
func (m *Mount) Readdir(ctx context.Context, path string) ([]wire.Dentry, error) {
	m.charge()
	parts, err := types.SplitPath(path)
	if err != nil {
		return nil, err
	}
	dir, err := m.resolveDir(parts)
	if err != nil {
		return nil, err
	}
	resp, err := m.call(mdsOp{Kind: opReaddir, Dir: dir})
	if err != nil {
		return nil, err
	}
	return resp.Entries, nil
}

// FlushAll implements fsapi.FileSystem: write back every dirty page (the
// fsync-per-phase barrier; MDS metadata is authoritative already).
func (m *Mount) FlushAll(ctx context.Context) error { return m.data.FlushAll() }

// Close implements fsapi.FileSystem.
func (m *Mount) Close() error { return nil }

// Open implements fsapi.FileSystem.
func (m *Mount) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (fsapi.File, error) {
	m.charge()
	dir, name, err := m.parentOf(path)
	if err != nil {
		return nil, err
	}
	var node *types.Inode
	resp, err := m.call(mdsOp{Kind: opLookup, Dir: dir, Name: name})
	switch {
	case err == nil:
		if flags.Has(types.OCreate) && flags.Has(types.OExcl) {
			return nil, types.ErrExist
		}
		node = resp.Inode
		// Real CephFS opens are a second MDS transaction: the client must
		// be issued capabilities (Fc/Fw caps) before touching file data.
		if _, cerr := m.call(mdsOp{Kind: opStat, Dir: dir, Name: name}); cerr != nil {
			return nil, cerr
		}
	case isNotExistStr(err) && flags.Has(types.OCreate):
		cresp, cerr := m.call(mdsOp{Kind: opCreate, Dir: dir, Name: name, Mode: mode, FType: types.TypeRegular})
		if cerr != nil {
			return nil, cerr
		}
		node = cresp.Inode
	default:
		return nil, err
	}
	if node.IsDir() {
		return nil, types.ErrIsDir
	}
	f := &file{m: m, dir: dir, name: name, ino: node.Ino, size: node.Size, flags: flags}
	if flags.Has(types.OTrunc) && flags.WantsWrite() && f.size > 0 {
		if _, err := m.call(mdsOp{Kind: opSetAttr, Dir: dir, Name: name,
			Patch: patch{SetSize: true, Size: 0}}); err != nil {
			return nil, err
		}
		m.data.Invalidate(node.Ino)
		if err := m.tr.Truncate(node.Ino, f.size, 0); err != nil {
			return nil, err
		}
		f.size = 0
	}
	if flags.Has(types.OAppend) {
		f.cur.Store(f.size)
	}
	return f, nil
}

// file is an open CephFS handle; data goes through the client page cache.
type file struct {
	m     *Mount
	dir   types.Ino
	name  string
	ino   types.Ino
	flags types.OpenFlag
	cur   types.Cursor

	mu     sync.Mutex
	size   int64
	wrote  bool
	closed bool
}

func (f *file) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.m.charge()
	f.mu.Lock()
	size := f.size
	f.mu.Unlock()
	n, err := f.m.data.Read(f.ino, p, off, size)
	if err != nil {
		return n, err
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *file) Read(p []byte) (int, error) { return f.cur.Read(f, p) }

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.m.charge()
	if !f.flags.WantsWrite() {
		return 0, types.ErrBadFD
	}
	if err := f.m.data.Write(f.ino, p, off); err != nil {
		return 0, err
	}
	f.mu.Lock()
	if end := off + int64(len(p)); end > f.size {
		f.size = end
	}
	f.wrote = true
	f.mu.Unlock()
	return len(p), nil
}

func (f *file) Write(p []byte) (int, error) { return f.cur.Write(f, p, f.flags.Has(types.OAppend)) }

func (f *file) Seek(offset int64, whence int) (int64, error) { return f.cur.Seek(f, offset, whence) }

func (f *file) Sync() error {
	f.m.charge()
	if err := f.m.data.Flush(f.ino); err != nil {
		return err
	}
	f.mu.Lock()
	size, wrote := f.size, f.wrote
	f.wrote = false
	f.mu.Unlock()
	if wrote {
		_, err := f.m.call(mdsOp{Kind: opSetAttr, Dir: f.dir, Name: f.name,
			Patch: patch{SetSize: true, Size: size, SetTimes: true, Mtime: f.m.env.Now()}})
		return err
	}
	return nil
}

// Fsync implements the context-aware flush; the MDS call path is uniform
// latency, so it reduces to Sync.
func (f *file) Fsync(context.Context) error { return f.Sync() }

func (f *file) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	wrote := f.wrote
	size := f.size
	f.wrote = false
	f.mu.Unlock()
	if wrote {
		// close(2): push the size to the MDS; dirty pages stay in the page
		// cache and write back in the background (kernel semantics).
		if _, err := f.m.call(mdsOp{Kind: opSetAttr, Dir: f.dir, Name: f.name,
			Patch: patch{SetSize: true, Size: size, SetTimes: true, Mtime: f.m.env.Now()}}); err != nil {
			return err
		}
		ino := f.ino
		f.m.env.Go(func() { _ = f.m.data.Flush(ino) })
	}
	return nil
}

// DropAllCaches empties the whole page cache.
func (m *Mount) DropAllCaches() { m.data.Clear() }

func wireErr(s string) error {
	switch s {
	case "ENOENT":
		return types.ErrNotExist
	case "EEXIST":
		return types.ErrExist
	case "ENOTDIR":
		return types.ErrNotDir
	case "EISDIR":
		return types.ErrIsDir
	case "ENOTEMPTY":
		return types.ErrNotEmpty
	case "EACCES":
		return types.ErrAccess
	case "EPERM":
		return types.ErrPerm
	default:
		return fmt.Errorf("cephsim: %s: %w", s, types.ErrIO)
	}
}

func isNotExistStr(err error) bool { return err == types.ErrNotExist }
