package pathfs

import (
	"context"
	"fmt"
	"io"
	"sync"

	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// goofys's data path: a writer holds the whole object in memory and PUTs it
// at fsync or close (goofys cannot patch an object); a reader's first access
// starts parallel ranged GETs over the read-ahead window, kept per mount.

// openStream opens key for streaming.
func (m *Mount) openStream(path, key string, flags types.OpenFlag) (fsapi.File, error) {
	size, herr := m.store.Head(key)
	exists := herr == nil
	if !exists && !flags.Has(types.OCreate) {
		return nil, fmt.Errorf("%s: open %q: %w", m.p.name, path, types.ErrNotExist)
	}
	if exists && flags.Has(types.OCreate) && flags.Has(types.OExcl) {
		return nil, types.ErrExist
	}
	f := &streamFile{m: m, key: key, flags: flags, size: size}
	if flags.WantsWrite() {
		f.wbuf = make([]byte, 0, m.p.partSize)
		if !flags.Has(types.OTrunc) && exists && size > 0 {
			data, err := m.store.Get(key)
			if err != nil {
				return nil, err
			}
			f.wbuf = data
		}
	}
	if flags.Has(types.OAppend) {
		f.cur.Store(f.Size())
	}
	return f, nil
}

// prefetched returns key's prefetch state, heading the object on its first
// read. No store call runs under m.mu: under VirtEnv it would stall every
// other goroutine that wants the lock.
func (m *Mount) prefetched(key string) (*object, error) {
	m.mu.Lock()
	o := m.objs[key]
	m.mu.Unlock()
	if o != nil {
		return o, nil
	}
	size, err := m.store.Head(key)
	if err != nil {
		return nil, fmt.Errorf("%s: read %q: %w", m.p.name, key, types.ErrNotExist)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if o := m.objs[key]; o != nil {
		return o, nil // another reader got there first
	}
	o = &object{data: make([]byte, size)}
	m.objs[key] = o
	return o, nil
}

// fetch transfers o's unfetched bytes below offset to in parallel ranged GETs
// of partSize, goofys's defining optimization: every part of the window is in
// flight at once, so a sequential reader sees line rate. Parts land under
// m.mu.
func (m *Mount) fetch(key string, o *object, to int64) error {
	m.mu.Lock()
	from := o.fetched
	m.mu.Unlock()
	if from >= to {
		return nil
	}
	g := sim.NewGroup(m.env)
	var gerr error
	for off := from; off < to; off += m.p.partSize {
		n := min(m.p.partSize, int64(len(o.data))-off)
		g.Go(func() {
			part, err := m.store.GetRange(key, off, n)
			m.mu.Lock()
			defer m.mu.Unlock()
			if err != nil {
				if gerr == nil {
					gerr = err
				}
				return
			}
			copy(o.data[off:], part)
		})
	}
	g.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if gerr != nil {
		return gerr
	}
	o.fetched = max(o.fetched, to)
	return nil
}

// streamFile is an open goofys handle.
type streamFile struct {
	m     *Mount
	key   string
	flags types.OpenFlag
	size  int64 // a reader's: the object's at open
	cur   types.Cursor

	mu    sync.Mutex
	wbuf  []byte // a writer's: the whole object
	dirty bool
}

func (f *streamFile) Size() int64 {
	if !f.flags.WantsWrite() {
		return f.size
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.wbuf))
}

// ReadAt reads through the mount's prefetch state, first fetching up to the
// read-ahead beyond off+len(p).
func (f *streamFile) ReadAt(p []byte, off int64) (int, error) {
	m := f.m
	m.charge()
	o, err := m.prefetched(f.key)
	if err != nil {
		return 0, err
	}
	size := int64(len(o.data))
	if err := m.fetch(f.key, o, min(off+int64(len(p))+m.p.readahead, size)); err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if off >= size {
		return 0, io.EOF
	}
	n := copy(p, o.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *streamFile) WriteAt(p []byte, off int64) (int, error) {
	f.m.charge()
	if !f.flags.WantsWrite() {
		return 0, types.ErrBadFD
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if end := off + int64(len(p)); end > int64(len(f.wbuf)) {
		grown := make([]byte, end)
		copy(grown, f.wbuf)
		f.wbuf = grown
	}
	copy(f.wbuf[off:], p)
	f.dirty = true
	return len(p), nil
}

func (f *streamFile) Read(p []byte) (int, error) { return f.cur.Read(f, p) }

func (f *streamFile) Write(p []byte) (int, error) {
	return f.cur.Write(f, p, f.flags.Has(types.OAppend))
}

func (f *streamFile) Seek(offset int64, whence int) (int64, error) {
	return f.cur.Seek(f, offset, whence)
}

// Sync uploads the buffered object (a multipart upload's equivalent) and
// drops the mount's prefetch state of it.
func (f *streamFile) Sync() error {
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
	f.mu.Unlock()
	f.m.mu.Lock()
	delete(f.m.objs, f.key)
	f.m.mu.Unlock()
	return nil
}

// Fsync implements the context-aware flush; the simulated upload has no
// cancellation points, so it reduces to Sync.
func (f *streamFile) Fsync(context.Context) error { return f.Sync() }

func (f *streamFile) Close() error { return f.Sync() }
