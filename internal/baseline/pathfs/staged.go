package pathfs

import (
	"context"
	"fmt"
	"io"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/types"
)

// S3FS's data path: the first open downloads the whole object to the
// staging disk, reads and writes hit that copy, and fsync or close PUTs it
// back whole, so any modification rewrites the entire object.

// diskTime charges staging-disk I/O.
func (m *Mount) diskTime(n int64) {
	if n > 0 {
		m.env.Sleep(time.Duration(float64(n) / float64(m.p.diskBW) * float64(time.Second)))
	}
}

// openStaged opens key through its staged copy, downloading it first.
func (m *Mount) openStaged(path, key string, flags types.OpenFlag) (fsapi.File, error) {
	excl := flags.Has(types.OCreate) && flags.Has(types.OExcl)
	m.mu.Lock()
	o := m.objs[key]
	m.mu.Unlock()
	if o == nil {
		data, err := m.store.Get(key)
		switch {
		case err == nil:
			if excl {
				return nil, types.ErrExist
			}
			m.diskTime(int64(len(data)))
			o = &object{data: data, lent: true}
		case flags.Has(types.OCreate):
			o = &object{}
		default:
			return nil, fmt.Errorf("%s: open %q: %w", m.p.name, path, types.ErrNotExist)
		}
		m.mu.Lock()
		m.objs[key] = o
		m.mu.Unlock()
	} else if excl {
		return nil, types.ErrExist
	}
	if flags.Has(types.OTrunc) && flags.WantsWrite() {
		m.mu.Lock()
		o.data = nil
		o.dirty = true
		m.mu.Unlock()
	}
	f := &stagedFile{m: m, key: key, o: o, flags: flags}
	if flags.Has(types.OAppend) {
		f.cur.Store(f.Size())
	}
	return f, nil
}

// upload reads a staged copy from disk and PUTs the whole object.
func (m *Mount) upload(key string, o *object) error {
	m.mu.Lock()
	data := o.data
	o.lent = true
	m.mu.Unlock()
	m.diskTime(int64(len(data)))
	if err := m.store.Put(key, data); err != nil {
		return err
	}
	m.mu.Lock()
	o.dirty = false
	m.mu.Unlock()
	return nil
}

// stagedFile is an open S3FS handle on the staged copy.
type stagedFile struct {
	m     *Mount
	key   string
	o     *object
	flags types.OpenFlag
	cur   types.Cursor
}

func (f *stagedFile) Size() int64 {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return int64(len(f.o.data))
}

func (f *stagedFile) ReadAt(p []byte, off int64) (int, error) {
	f.m.charge()
	f.m.diskTime(int64(len(p)))
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if off >= int64(len(f.o.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.o.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *stagedFile) WriteAt(p []byte, off int64) (int, error) {
	f.m.charge()
	if !f.flags.WantsWrite() {
		return 0, types.ErrBadFD
	}
	f.m.diskTime(int64(len(p)))
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.o.data = writeInto(f.o.data, f.o.lent, p, off)
	f.o.lent, f.o.dirty = false, true
	return len(p), nil
}

func (f *stagedFile) Read(p []byte) (int, error) { return f.cur.Read(f, p) }

func (f *stagedFile) Write(p []byte) (int, error) {
	return f.cur.Write(f, p, f.flags.Has(types.OAppend))
}

func (f *stagedFile) Seek(offset int64, whence int) (int64, error) {
	return f.cur.Seek(f, offset, whence)
}

func (f *stagedFile) Sync() error {
	f.m.charge()
	f.m.mu.Lock()
	dirty := f.o.dirty
	f.m.mu.Unlock()
	if dirty {
		return f.m.upload(f.key, f.o)
	}
	return nil
}

// Fsync implements the context-aware flush; the staged upload has no
// cancellation points, so it reduces to Sync.
func (f *stagedFile) Fsync(context.Context) error { return f.Sync() }

func (f *stagedFile) Close() error { return f.Sync() }
