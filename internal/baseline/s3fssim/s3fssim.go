// Package s3fssim implements an S3FS-like baseline: a FUSE wrapper that maps
// each file to one object whose key is the full path. It reproduces the
// behaviors the paper attributes to S3FS:
//
//   - whole-object semantics: any modification rewrites the entire object;
//   - a local disk staging cache: writes land on disk first and are uploaded
//     wholesale at fsync/close, reads download the whole object to disk
//     first — the "slow disk cache" behind the paper's 5.95×/3.59× gaps;
//   - path-as-key: renaming a directory server-side copies every object
//     under the prefix;
//   - no coordination between clients and lax permission checking.
package s3fssim

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

// Options configures one S3FS mount.
type Options struct {
	// DiskBandwidth models the node-local staging disk (bytes/s).
	DiskBandwidth int64
	// FUSEOverhead is charged per request (S3FS is FUSE-only).
	FUSEOverhead time.Duration
}

// DefaultOptions models an EBS gp2-class staging volume.
func DefaultOptions() Options {
	return Options{DiskBandwidth: 250 << 20, FUSEOverhead: 8 * time.Microsecond}
}

// Mount is one S3FS client over an object store bucket.
type Mount struct {
	env   sim.Env
	store objstore.Store
	opts  Options

	mu      sync.Mutex
	closed  bool
	staged  map[string]*stagedFile // path -> staging state
	inoSrc  *types.InoSource
	dirMark map[string]bool // locally created directory markers
}

// stagedFile is the on-disk staging copy of one object.
type stagedFile struct {
	data  []byte
	dirty bool
}

// New creates a mount on the store.
func New(env sim.Env, store objstore.Store, opts Options) *Mount {
	if opts.DiskBandwidth <= 0 {
		opts.DiskBandwidth = 250 << 20
	}
	return &Mount{
		env: env, store: store, opts: opts,
		staged:  make(map[string]*stagedFile),
		inoSrc:  types.NewInoSource(0x53F5),
		dirMark: make(map[string]bool),
	}
}

func (m *Mount) charge() {
	if m.opts.FUSEOverhead > 0 {
		m.env.Sleep(m.opts.FUSEOverhead)
	}
}

// diskTime charges staging-disk I/O.
func (m *Mount) diskTime(n int64) {
	if n > 0 {
		m.env.Sleep(time.Duration(float64(n) / float64(m.opts.DiskBandwidth) * float64(time.Second)))
	}
}

// objKey maps a path to its object key (no leading slash, as s3fs does).
func objKey(path string) (string, error) {
	parts, err := types.SplitPath(path)
	if err != nil {
		return "", err
	}
	return strings.Join(parts, "/"), nil
}

// Mkdir implements fsapi.FileSystem: a zero-byte marker object "<path>/".
func (m *Mount) Mkdir(ctx context.Context, path string, mode types.Mode) error {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return err
	}
	if err := m.store.Put(key+"/", nil); err != nil {
		return err
	}
	m.mu.Lock()
	m.dirMark[key] = true
	m.mu.Unlock()
	return nil
}

// Stat implements fsapi.FileSystem via HEAD (falling back to the directory
// marker and prefix probing, as s3fs does).
func (m *Mount) Stat(ctx context.Context, path string) (*types.Inode, error) {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return nil, err
	}
	if key == "" {
		return m.synthInode("", 0, true), nil
	}
	if size, err := m.store.Head(key); err == nil {
		return m.synthInode(key, size, false), nil
	}
	if _, err := m.store.Head(key + "/"); err == nil {
		return m.synthInode(key, 0, true), nil
	}
	// Implicit directory: any object under the prefix makes it a dir.
	keys, err := m.store.List(key + "/")
	if err != nil {
		return nil, err
	}
	if len(keys) > 0 {
		return m.synthInode(key, 0, true), nil
	}
	return nil, fmt.Errorf("s3fs: stat %q: %w", path, types.ErrNotExist)
}

// synthInode fabricates an inode; s3fs has no real inode store.
func (m *Mount) synthInode(key string, size int64, dir bool) *types.Inode {
	n := &types.Inode{Mode: 0666, Size: size, Nlink: 1}
	// Derive a stable pseudo-ino from the key.
	copy(n.Ino[:], key)
	n.Ino[15] = 1
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
		return fmt.Errorf("s3fs: unlink %q: %w", path, types.ErrNotExist)
	}
	m.mu.Lock()
	delete(m.staged, key)
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
			return fmt.Errorf("s3fs: rmdir %q: %w", path, types.ErrNotEmpty)
		}
	}
	m.mu.Lock()
	delete(m.dirMark, key)
	m.mu.Unlock()
	return m.store.Delete(key + "/")
}

// Rename implements fsapi.FileSystem: server-side copy + delete of every
// object under the source prefix — the paper's "renaming a directory leads
// to rewriting all the files under it".
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
	moved := false
	// A plain file.
	if data, err := m.store.Get(skey); err == nil {
		if err := m.store.Put(dkey, data); err != nil {
			return err
		}
		if err := m.store.Delete(skey); err != nil {
			return err
		}
		moved = true
	}
	// A directory prefix: copy every object under it.
	keys, err := m.store.List(skey + "/")
	if err != nil {
		return err
	}
	for _, k := range keys {
		data, err := m.store.Get(k)
		if err != nil {
			return err
		}
		if err := m.store.Put(dkey+"/"+strings.TrimPrefix(k, skey+"/"), data); err != nil {
			return err
		}
		if err := m.store.Delete(k); err != nil {
			return err
		}
		moved = true
	}
	if !moved {
		return fmt.Errorf("s3fs: rename %q: %w", src, types.ErrNotExist)
	}
	return nil
}

// Readdir implements fsapi.FileSystem by listing the prefix and collapsing
// to immediate children.
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
		de.Ino[15] = 1
		out = append(out, de)
	}
	return out, nil
}

// FlushAll implements fsapi.FileSystem: upload every dirty staged file.
func (m *Mount) FlushAll(ctx context.Context) error {
	m.mu.Lock()
	dirty := make(map[string]*stagedFile)
	for k, sf := range m.staged {
		if sf.dirty {
			dirty[k] = sf
		}
	}
	m.mu.Unlock()
	for key, sf := range dirty {
		if err := m.upload(key, sf); err != nil {
			return err
		}
	}
	return nil
}

// upload writes a staged file back: read it from disk, then PUT the whole
// object.
func (m *Mount) upload(key string, sf *stagedFile) error {
	m.diskTime(int64(len(sf.data))) // read the staging copy
	if err := m.store.Put(key, sf.data); err != nil {
		return err
	}
	m.mu.Lock()
	sf.dirty = false
	m.mu.Unlock()
	return nil
}

// Close implements fsapi.FileSystem. It is idempotent: the first call
// uploads every dirty staged file; later calls return nil immediately.
func (m *Mount) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	return m.FlushAll(context.Background())
}

// Open implements fsapi.FileSystem.
func (m *Mount) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (fsapi.File, error) {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	sf := m.staged[key]
	m.mu.Unlock()
	if sf == nil {
		data, err := m.store.Get(key)
		switch {
		case err == nil:
			if flags.Has(types.OCreate) && flags.Has(types.OExcl) {
				return nil, types.ErrExist
			}
			// Download the whole object into the staging cache.
			m.diskTime(int64(len(data)))
			sf = &stagedFile{data: data}
		case flags.Has(types.OCreate):
			sf = &stagedFile{}
		default:
			return nil, fmt.Errorf("s3fs: open %q: %w", path, types.ErrNotExist)
		}
		m.mu.Lock()
		m.staged[key] = sf
		m.mu.Unlock()
	} else if flags.Has(types.OCreate) && flags.Has(types.OExcl) {
		return nil, types.ErrExist
	}
	if flags.Has(types.OTrunc) && flags.WantsWrite() {
		m.mu.Lock()
		sf.data = nil
		sf.dirty = true
		m.mu.Unlock()
	}
	f := &file{m: m, key: key, sf: sf, flags: flags}
	if flags.Has(types.OAppend) {
		f.offset = int64(len(sf.data))
	}
	return f, nil
}

// file is an open S3FS handle backed by the staging copy.
type file struct {
	m     *Mount
	key   string
	sf    *stagedFile
	flags types.OpenFlag

	mu     sync.Mutex
	offset int64
}

func (f *file) Size() int64 {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return int64(len(f.sf.data))
}

func (f *file) ReadAt(p []byte, off int64) (int, error) {
	f.m.charge()
	f.m.diskTime(int64(len(p)))
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if off >= int64(len(f.sf.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.sf.data[off:])
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
	f.m.diskTime(int64(len(p))) // staging write hits the disk
	f.m.mu.Lock()
	end := off + int64(len(p))
	if end > int64(len(f.sf.data)) {
		grown := make([]byte, end)
		copy(grown, f.sf.data)
		f.sf.data = grown
	}
	copy(f.sf.data[off:], p)
	f.sf.dirty = true
	f.m.mu.Unlock()
	return len(p), nil
}

func (f *file) Write(p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	if f.flags.Has(types.OAppend) {
		off = f.Size()
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
		f.offset = f.Size() + offset
	default:
		return 0, types.ErrInval
	}
	return f.offset, nil
}

func (f *file) Sync() error {
	f.m.charge()
	f.m.mu.Lock()
	dirty := f.sf.dirty
	f.m.mu.Unlock()
	if dirty {
		return f.m.upload(f.key, f.sf)
	}
	return nil
}

// Fsync implements the context-aware flush; the staged upload has no
// cancellation points, so it reduces to Sync.
func (f *file) Fsync(context.Context) error { return f.Sync() }

func (f *file) Close() error { return f.Sync() }

// DropAllCaches evicts every staging copy (benchmark cache-drop step).
func (m *Mount) DropAllCaches() {
	m.mu.Lock()
	m.staged = make(map[string]*stagedFile)
	m.mu.Unlock()
}
