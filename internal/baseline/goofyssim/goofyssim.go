// Package goofyssim implements a goofys-like baseline: a path-as-key S3 file
// system "extremely optimized for sequential reads" (paper §IV-B). Compared
// with s3fssim it has no disk staging cache — writes buffer in memory and
// stream out on close/fsync — and its read path prefetches with a 400 MiB
// read-ahead window (50× ArkFS's default), which is what lets it beat
// ArkFS-ra8MB on sequential READ in Fig. 6(b).
package goofyssim

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Options configures one goofys mount.
type Options struct {
	// Readahead is the sequential prefetch window (default 400 MiB).
	Readahead int64
	// PartSize is the streaming upload/download granularity.
	PartSize int64
	// FUSEOverhead per request (goofys is FUSE-based).
	FUSEOverhead time.Duration
	// Net models the client↔S3 link for prefetch pipelining.
	Net sim.NetModel
}

// DefaultOptions mirrors goofys v0.24 defaults.
func DefaultOptions() Options {
	return Options{Readahead: 400 << 20, PartSize: 8 << 20, FUSEOverhead: 8 * time.Microsecond}
}

// Mount is one goofys client; it implements fsapi.FileSystem.
type Mount struct {
	env   sim.Env
	store objstore.Store
	opts  Options

	mu      sync.Mutex
	readBuf map[string]*readState // path -> prefetch state
}

// readState is the prefetch pipeline of one sequentially read object.
type readState struct {
	data      []byte
	fetched   int64 // bytes already transferred
	totalSize int64
}

// New creates a mount on the store.
func New(env sim.Env, store objstore.Store, opts Options) *Mount {
	if opts.Readahead <= 0 {
		opts.Readahead = 400 << 20
	}
	if opts.PartSize <= 0 {
		opts.PartSize = 8 << 20
	}
	return &Mount{env: env, store: store, opts: opts, readBuf: make(map[string]*readState)}
}

func (m *Mount) charge() {
	if m.opts.FUSEOverhead > 0 {
		m.env.Sleep(m.opts.FUSEOverhead)
	}
}

func objKey(path string) (string, error) {
	parts, err := types.SplitPath(path)
	if err != nil {
		return "", err
	}
	return strings.Join(parts, "/"), nil
}

// Mkdir implements fsapi.FileSystem (marker object, like s3fs).
func (m *Mount) Mkdir(ctx context.Context, path string, mode types.Mode) error {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return err
	}
	return m.store.Put(key+"/", nil)
}

// Stat implements fsapi.FileSystem.
func (m *Mount) Stat(ctx context.Context, path string) (*types.Inode, error) {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return nil, err
	}
	if key == "" {
		return synth(key, 0, true), nil
	}
	if size, err := m.store.Head(key); err == nil {
		return synth(key, size, false), nil
	}
	if _, err := m.store.Head(key + "/"); err == nil {
		return synth(key, 0, true), nil
	}
	keys, err := m.store.List(key + "/")
	if err != nil {
		return nil, err
	}
	if len(keys) > 0 {
		return synth(key, 0, true), nil
	}
	return nil, fmt.Errorf("goofys: stat %q: %w", path, types.ErrNotExist)
}

func synth(key string, size int64, dir bool) *types.Inode {
	n := &types.Inode{Mode: 0666, Size: size, Nlink: 1}
	copy(n.Ino[:], key)
	n.Ino[15] = 2
	if dir {
		n.Type = types.TypeDir
		n.Mode = 0777
		n.Nlink = 2
	}
	return n
}

// Unlink implements fsapi.FileSystem.
func (m *Mount) Unlink(ctx context.Context, path string) error {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return err
	}
	if _, err := m.store.Head(key); err != nil {
		return fmt.Errorf("goofys: unlink %q: %w", path, types.ErrNotExist)
	}
	m.mu.Lock()
	delete(m.readBuf, key)
	m.mu.Unlock()
	return m.store.Delete(key)
}

// Rmdir implements fsapi.FileSystem.
func (m *Mount) Rmdir(ctx context.Context, path string) error {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return err
	}
	keys, err := m.store.List(key + "/")
	if err != nil {
		return err
	}
	for _, k := range keys {
		if k != key+"/" {
			return fmt.Errorf("goofys: rmdir %q: %w", path, types.ErrNotEmpty)
		}
	}
	return m.store.Delete(key + "/")
}

// Rename is not supported for directories by goofys; files are copy+delete.
func (m *Mount) Rename(ctx context.Context, src, dst string) error {
	m.charge()
	skey, err := objKey(src)
	if err != nil {
		return err
	}
	dkey, err := objKey(dst)
	if err != nil {
		return err
	}
	data, err := m.store.Get(skey)
	if err != nil {
		return fmt.Errorf("goofys: rename %q: %w", src, types.ErrNotExist)
	}
	if err := m.store.Put(dkey, data); err != nil {
		return err
	}
	return m.store.Delete(skey)
}

// Readdir implements fsapi.FileSystem.
func (m *Mount) Readdir(ctx context.Context, path string) ([]wire.Dentry, error) {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return nil, err
	}
	prefix := key + "/"
	if key == "" {
		prefix = ""
	}
	keys, err := m.store.List(prefix)
	if err != nil {
		return nil, err
	}
	seen := map[string]types.FileType{}
	for _, k := range keys {
		rest := strings.TrimPrefix(k, prefix)
		if rest == "" {
			continue
		}
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			seen[rest[:i]] = types.TypeDir
		} else {
			seen[rest] = types.TypeRegular
		}
	}
	out := make([]wire.Dentry, 0, len(seen))
	for name, ft := range seen {
		de := wire.Dentry{Name: name, Type: ft}
		copy(de.Ino[:], prefix+name)
		de.Ino[15] = 2
		out = append(out, de)
	}
	return out, nil
}

// FlushAll implements fsapi.FileSystem; open handles flush on Sync/Close.
func (m *Mount) FlushAll(ctx context.Context) error { return nil }

// Close implements fsapi.FileSystem.
func (m *Mount) Close() error { return nil }

// Open implements fsapi.FileSystem.
func (m *Mount) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (fsapi.File, error) {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return nil, err
	}
	size, herr := m.store.Head(key)
	exists := herr == nil
	if !exists && !flags.Has(types.OCreate) {
		return nil, fmt.Errorf("goofys: open %q: %w", path, types.ErrNotExist)
	}
	if exists && flags.Has(types.OCreate) && flags.Has(types.OExcl) {
		return nil, types.ErrExist
	}
	f := &file{m: m, key: key, flags: flags, size: size}
	if flags.Has(types.OTrunc) && flags.WantsWrite() {
		f.size = 0
	}
	if flags.WantsWrite() {
		f.wbuf = make([]byte, 0, m.opts.PartSize)
		if !flags.Has(types.OTrunc) && exists && size > 0 {
			// goofys cannot patch objects: writes replace them wholesale.
			data, err := m.store.Get(key)
			if err != nil {
				return nil, err
			}
			f.wbuf = data
		}
	}
	if flags.Has(types.OAppend) {
		f.offset = f.size
	}
	return f, nil
}

// file is one goofys handle. Writes buffer in memory (streamed out on
// Sync/Close); sequential reads ride the prefetch pipeline.
type file struct {
	m     *Mount
	key   string
	flags types.OpenFlag

	mu     sync.Mutex
	size   int64
	offset int64
	wbuf   []byte
	dirty  bool
	closed bool
}

func (f *file) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.wbuf != nil && int64(len(f.wbuf)) > f.size {
		return int64(len(f.wbuf))
	}
	return f.size
}

// ReadAt serves reads via the 400 MiB read-ahead pipeline: the first access
// begins a bulk transfer; sequential readers stream at full line rate.
func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.m.charge()
	m := f.m
	m.mu.Lock()
	rs := m.readBuf[f.key]
	if rs == nil {
		size, err := m.store.Head(f.key)
		if err != nil {
			m.mu.Unlock()
			return 0, fmt.Errorf("goofys: read %q: %w", f.key, types.ErrNotExist)
		}
		rs = &readState{totalSize: size}
		m.readBuf[f.key] = rs
	}
	m.mu.Unlock()

	// Ensure the window covering [off, off+len(p)) plus the read-ahead is
	// fetched. The transfer is charged through the store (sized GETs) in
	// part-size pieces, which models goofys's parallel ranged GETs.
	need := off + int64(len(p))
	if need > rs.totalSize {
		need = rs.totalSize
	}
	target := need + m.opts.Readahead
	if target > rs.totalSize {
		target = rs.totalSize
	}
	m.mu.Lock()
	fetched := rs.fetched
	m.mu.Unlock()
	if fetched < target {
		// Parallel ranged GETs in PartSize pieces up to the read-ahead
		// window — goofys's defining optimization. All parts of the window
		// transfer concurrently, so sequential readers see line rate.
		if rs.data == nil {
			rs.data = make([]byte, rs.totalSize)
		}
		g := sim.NewGroup(m.env)
		var gerr error
		var gmu sync.Mutex
		for off := fetched; off < target; off += m.opts.PartSize {
			off := off
			n := m.opts.PartSize
			if r := rs.totalSize - off; n > r {
				n = r
			}
			g.Go(func() {
				part, err := m.store.GetRange(f.key, off, n)
				gmu.Lock()
				defer gmu.Unlock()
				if err != nil && gerr == nil {
					gerr = err
					return
				}
				copy(rs.data[off:], part)
			})
		}
		g.Wait()
		if gerr != nil {
			return 0, gerr
		}
		m.mu.Lock()
		if target > rs.fetched {
			rs.fetched = target
		}
		m.mu.Unlock()
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= int64(len(rs.data)) {
		return 0, io.EOF
	}
	n := copy(p, rs.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *file) Read(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	f.mu.Unlock()
	n, err := f.ReadAt(p, off)
	f.mu.Lock()
	f.offset = off + int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *file) WriteAt(p []byte, off int64) (int, error) {
	f.m.charge()
	if !f.flags.WantsWrite() {
		return 0, types.ErrBadFD
	}
	f.mu.Lock()
	end := off + int64(len(p))
	if end > int64(len(f.wbuf)) {
		grown := make([]byte, end)
		copy(grown, f.wbuf)
		f.wbuf = grown
	}
	copy(f.wbuf[off:], p)
	f.dirty = true
	f.mu.Unlock()
	return len(p), nil
}

func (f *file) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	if f.flags.Has(types.OAppend) {
		off = int64(len(f.wbuf))
	}
	f.mu.Unlock()
	n, err := f.WriteAt(p, off)
	f.mu.Lock()
	f.offset = off + int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *file) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch whence {
	case io.SeekStart:
		f.offset = offset
	case io.SeekCurrent:
		f.offset += offset
	case io.SeekEnd:
		f.offset = f.size + offset
	default:
		return 0, types.ErrInval
	}
	return f.offset, nil
}

// Sync streams the buffered object out (multipart upload equivalent).
func (f *file) Sync() error {
	f.m.charge()
	f.mu.Lock()
	dirty := f.dirty
	data := f.wbuf
	f.mu.Unlock()
	if !dirty {
		return nil
	}
	if err := f.m.store.Put(f.key, data); err != nil {
		return err
	}
	f.mu.Lock()
	f.dirty = false
	f.size = int64(len(data))
	f.mu.Unlock()
	f.m.mu.Lock()
	delete(f.m.readBuf, f.key) // a rewrite invalidates the prefetch state
	f.m.mu.Unlock()
	return nil
}

// Fsync implements the context-aware flush; the simulated upload has no
// cancellation points, so it reduces to Sync.
func (f *file) Fsync(context.Context) error { return f.Sync() }

func (f *file) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	return f.Sync()
}

// DropAllCaches evicts prefetch state (benchmark cache-drop step).
func (m *Mount) DropAllCaches() { m.DropCaches() }

// DropCaches evicts prefetch state (benchmark cache-drop step).
func (m *Mount) DropCaches() {
	m.mu.Lock()
	m.readBuf = make(map[string]*readState)
	m.mu.Unlock()
}
