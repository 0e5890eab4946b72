// Package pathfs implements the path-as-key baselines of Fig. 6(b), S3FS and
// goofys: FUSE wrappers that map each file to one object whose key is its
// full path. They share one namespace design, written here:
//
//   - a directory is a zero-byte marker object "<path>/";
//   - stat is a HEAD of the key, then of the marker, then a LIST of the
//     prefix (any object under it makes an implicit directory);
//   - readdir is a LIST of the prefix collapsed to immediate children;
//   - rename is a server-side copy and delete: of every object under a
//     directory's prefix for S3FS, the paper's "renaming a directory leads
//     to rewriting all the files under it", of one file for goofys;
//   - no inode store, no coordination between clients, lax permissions.
//
// They differ in how they stage data, each in its own file. S3FS stages the
// whole object on a local disk and PUTs it at fsync or close (staged.go),
// the "slow disk cache" behind the paper's 5.95×/3.59× gaps. goofys buffers
// writes in memory and reads through parallel ranged GETs over a 400 MiB
// read-ahead window (stream.go), which lets it beat ArkFS-ra8MB on
// sequential READ.
package pathfs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Policy is one of the two path-as-key systems, S3FS or Goofys.
type Policy struct {
	name         string // the error prefix
	inoTag       byte   // the last byte of every pseudo-inode
	diskBW       int64  // the staging disk's bytes/s; 0: no disk, data streams through memory
	readahead    int64  // the streaming read's prefetch window
	partSize     int64  // a ranged GET's size and the write buffer's initial capacity
	prefixRename bool   // rename also moves every object under the prefix
}

var (
	// S3FS stages whole objects on an EBS gp2-class volume.
	S3FS = Policy{name: "s3fs", inoTag: 1, diskBW: 250 << 20, prefixRename: true}
	// Goofys streams, with goofys v0.24's read-ahead and part size.
	Goofys = Policy{name: "goofys", inoTag: 2, readahead: 400 << 20, partSize: 8 << 20}
)

// Mount is one client over an object store bucket; it implements
// fsapi.FileSystem.
type Mount struct {
	env   sim.Env
	store objstore.Store
	p     Policy
	fuse  time.Duration // charged per request

	mu   sync.Mutex
	objs map[string]*object // key -> S3FS's staged copy or goofys's prefetch state
}

// object is a mount's copy of one object: S3FS's staged copy, all of it, or
// goofys's prefetch buffer, object-sized and filled up to fetched.
type object struct {
	data    []byte
	dirty   bool  // S3FS: written since the last upload
	fetched int64 // goofys: the prefix of data already transferred
}

// New creates a mount on the store that charges fuse per request.
func New(env sim.Env, store objstore.Store, p Policy, fuse time.Duration) *Mount {
	return &Mount{env: env, store: store, p: p, fuse: fuse, objs: make(map[string]*object)}
}

func (m *Mount) charge() {
	if m.fuse > 0 {
		m.env.Sleep(m.fuse)
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
		return m.synth(key, 0, true), nil
	}
	if size, err := m.store.Head(key); err == nil {
		return m.synth(key, size, false), nil
	}
	if _, err := m.store.Head(key + "/"); err == nil {
		return m.synth(key, 0, true), nil
	}
	keys, err := m.store.List(key + "/")
	if err != nil {
		return nil, err
	}
	if len(keys) > 0 {
		return m.synth(key, 0, true), nil
	}
	return nil, fmt.Errorf("%s: stat %q: %w", m.p.name, path, types.ErrNotExist)
}

// synth fabricates an inode whose number is the key, tagged by the policy;
// a path-as-key system has no inode store.
func (m *Mount) synth(key string, size int64, dir bool) *types.Inode {
	n := &types.Inode{Mode: 0666, Size: size, Nlink: 1}
	copy(n.Ino[:], key)
	n.Ino[15] = m.p.inoTag
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
		return fmt.Errorf("%s: unlink %q: %w", m.p.name, path, types.ErrNotExist)
	}
	m.mu.Lock()
	delete(m.objs, key)
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
			return fmt.Errorf("%s: rmdir %q: %w", m.p.name, path, types.ErrNotEmpty)
		}
	}
	return m.store.Delete(key + "/")
}

// Rename implements fsapi.FileSystem by server-side copy and delete.
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
	if data, err := m.store.Get(skey); err == nil {
		if err := m.store.Put(dkey, data); err != nil {
			return err
		}
		if err := m.store.Delete(skey); err != nil {
			return err
		}
		moved = true
	}
	if m.p.prefixRename {
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
	}
	if !moved {
		return fmt.Errorf("%s: rename %q: %w", m.p.name, src, types.ErrNotExist)
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
		de.Ino[15] = m.p.inoTag
		out = append(out, de)
	}
	return out, nil
}

// Open implements fsapi.FileSystem.
func (m *Mount) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (fsapi.File, error) {
	m.charge()
	key, err := objKey(path)
	if err != nil {
		return nil, err
	}
	if m.p.diskBW > 0 {
		return m.openStaged(path, key, flags)
	}
	return m.openStream(path, key, flags)
}

// FlushAll implements fsapi.FileSystem: upload every dirty staged copy. A
// streaming handle flushes its own buffer at Sync or Close.
func (m *Mount) FlushAll(ctx context.Context) error {
	m.mu.Lock()
	dirty := make(map[string]*object)
	for k, o := range m.objs {
		if o.dirty {
			dirty[k] = o
		}
	}
	m.mu.Unlock()
	for key, o := range dirty {
		if err := m.upload(key, o); err != nil {
			return err
		}
	}
	return nil
}

// Close implements fsapi.FileSystem: it flushes, so a second Close finds
// nothing to do.
func (m *Mount) Close() error { return m.FlushAll(context.Background()) }

// DropAllCaches forgets every staged copy and prefetch state (the benchmark
// cache-drop step).
func (m *Mount) DropAllCaches() {
	m.mu.Lock()
	m.objs = make(map[string]*object)
	m.mu.Unlock()
}
