package main

// Seam spans, recorded from outside the program: a wrapper around
// fsapi.FileSystem/File records one span per call, and a wrapper around
// objstore.Store (mounted between prt and the base store) records one span
// per verb. Spans are kept in memory; the first traced round of a run is
// written to bench/out/trace-<workload>.jsonl when the run ends.
//
// A store verb runs on whichever goroutine the program chose (a journal
// commit worker, a write-back, the caller itself) and the Store interface
// carries no context, so from outside a verb cannot be tied to the call that
// caused it. Both kinds of span are therefore children of the phase span they
// ran under: round → phase → {fsapi call, objstore verb}.

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/objstore"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

type opName uint8

const (
	opPhase opName = iota
	opCreate
	opOpen
	opClose
	opRead
	opWrite
	opFsync
	opStat
	opUnlink
	opMkdir
	opRmdir
	opReaddir
	opRename
	opFlushAll
	opUnmount
	opPut
	opGet
	opGetRange
	opDelete
	opList
	opHead
	numOps
)

var opNames = [numOps]string{"phase", "create", "open", "close", "read", "write", "fsync", "stat",
	"unlink", "mkdir", "rmdir", "readdir", "rename", "flushall", "unmount",
	"put", "get", "getrange", "delete", "list", "head"}

func (o opName) layer() string {
	switch {
	case o == opPhase:
		return "bench"
	case o < opPut:
		return "fsapi"
	}
	return "objstore"
}

// span is one recorded interval. Times are environment-clock nanoseconds
// (wall in the wall workloads, virtual in sim_rados).
type span struct {
	start, end int64
	bytes      int64
	phase      uint16 // index of the enclosing phase in recorder.phases
	op         opName
	class      byte // key class of a store verb: 'i', 'e', 'j', 'd', or 0
}

type phaseMark struct {
	name       string
	timed      bool // inside one of the workload's clocks
	start, end int64
}

// recorder collects the spans of one traced round.
type recorder struct {
	phases []phaseMark
	cur    atomic.Uint32 // index of the open phase; background store verbs read it at any time

	mu    sync.Mutex
	bufs  []*[]span // one per wrapped FileSystem, each appended to by the goroutine that drives it
	store []span    // objstore verbs: any goroutine
}

func newRecorder() *recorder {
	r := &recorder{}
	r.phases = append(r.phases, phaseMark{name: "setup"})
	return r
}

// begin closes the current phase and opens the next; timed says whether it is
// one of the workload's clocks. Callers invoke it from the coordinating
// goroutine while no load goroutine runs. A nil recorder (an untraced round)
// ignores it.
func (r *recorder) begin(name string, timed bool, now int64) {
	if r == nil {
		return
	}
	r.phases[len(r.phases)-1].end = now
	r.phases = append(r.phases, phaseMark{name: name, timed: timed, start: now})
	r.cur.Store(uint32(len(r.phases) - 1))
}

func (r *recorder) wrapFS(inner fsapi.FileSystem, now func() time.Duration) fsapi.FileSystem {
	buf := make([]span, 0, 1<<12)
	r.mu.Lock()
	r.bufs = append(r.bufs, &buf)
	r.mu.Unlock()
	return &tracedFS{inner: inner, rec: r, buf: &buf, now: now}
}

// all returns every span of the round: fsapi calls first, store verbs after.
func (r *recorder) all() []span {
	var out []span
	r.mu.Lock()
	for _, b := range r.bufs {
		out = append(out, *b...)
	}
	out = append(out, r.store...)
	r.mu.Unlock()
	return out
}

// writeJSONL writes the round as one span per line.
func (r *recorder) writeJSONL(path string) error {
	const round = 0 // the trace id: a file holds one round
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	// Span ids: the round is 1, phases follow, then every other span.
	fmt.Fprintf(w, `{"trace":%d,"span":1,"parent":0,"layer":"bench","name":"round","start_ns":%d,"end_ns":%d,"bytes":0,"class":""}`+"\n",
		round, r.phases[0].start, r.phases[len(r.phases)-1].start)
	for i, p := range r.phases {
		if i == len(r.phases)-1 {
			p.end = p.start // the closing mark
		}
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":1,"layer":"bench","name":%q,"start_ns":%d,"end_ns":%d,"bytes":0,"class":""}`+"\n",
			round, i+2, "phase:"+p.name, p.start, p.end)
	}
	id := len(r.phases) + 2
	for _, s := range r.all() {
		class := ""
		if s.class != 0 {
			class = string(s.class) + ":"
		}
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"bytes":%d,"class":%q}`+"\n",
			round, id, int(s.phase)+2, s.op.layer(), opNames[s.op], s.start, s.end, s.bytes, class)
		id++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- fsapi seam ---------------------------------------------------------------

type tracedFS struct {
	inner fsapi.FileSystem
	rec   *recorder
	buf   *[]span
	now   func() time.Duration
}

func (t *tracedFS) add(op opName, start time.Duration, bytes int64) {
	*t.buf = append(*t.buf, span{start: int64(start), end: int64(t.now()), bytes: bytes, phase: uint16(t.rec.cur.Load()), op: op})
}

func (t *tracedFS) Mkdir(ctx context.Context, path string, mode types.Mode) error {
	s := t.now()
	err := t.inner.Mkdir(ctx, path, mode)
	t.add(opMkdir, s, 0)
	return err
}

func (t *tracedFS) Open(ctx context.Context, path string, flags types.OpenFlag, mode types.Mode) (fsapi.File, error) {
	s := t.now()
	f, err := t.inner.Open(ctx, path, flags, mode)
	op := opOpen
	if flags.Has(types.OCreate) {
		op = opCreate
	}
	t.add(op, s, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: t}, nil
}

func (t *tracedFS) Stat(ctx context.Context, path string) (*types.Inode, error) {
	s := t.now()
	n, err := t.inner.Stat(ctx, path)
	t.add(opStat, s, 0)
	return n, err
}

func (t *tracedFS) Unlink(ctx context.Context, path string) error {
	s := t.now()
	err := t.inner.Unlink(ctx, path)
	t.add(opUnlink, s, 0)
	return err
}

func (t *tracedFS) Rmdir(ctx context.Context, path string) error {
	s := t.now()
	err := t.inner.Rmdir(ctx, path)
	t.add(opRmdir, s, 0)
	return err
}

func (t *tracedFS) Rename(ctx context.Context, src, dst string) error {
	s := t.now()
	err := t.inner.Rename(ctx, src, dst)
	t.add(opRename, s, 0)
	return err
}

func (t *tracedFS) Readdir(ctx context.Context, path string) ([]wire.Dentry, error) {
	s := t.now()
	d, err := t.inner.Readdir(ctx, path)
	t.add(opReaddir, s, 0)
	return d, err
}

func (t *tracedFS) FlushAll(ctx context.Context) error {
	s := t.now()
	err := t.inner.FlushAll(ctx)
	t.add(opFlushAll, s, 0)
	return err
}

func (t *tracedFS) Close() error {
	s := t.now()
	err := t.inner.Close()
	t.add(opUnmount, s, 0)
	return err
}

// tracedFile records the data calls of one handle. Seek and Size are cheap
// field reads in every implementation and are left to the embedded File.
type tracedFile struct {
	fsapi.File
	fs *tracedFS
}

func (f *tracedFile) Read(p []byte) (int, error) {
	s := f.fs.now()
	n, err := f.File.Read(p)
	f.fs.add(opRead, s, int64(n))
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.fs.now()
	n, err := f.File.ReadAt(p, off)
	f.fs.add(opRead, s, int64(n))
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.fs.now()
	n, err := f.File.Write(p)
	f.fs.add(opWrite, s, int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	s := f.fs.now()
	n, err := f.File.WriteAt(p, off)
	f.fs.add(opWrite, s, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error { return f.Fsync(context.Background()) }

func (f *tracedFile) Fsync(ctx context.Context) error {
	s := f.fs.now()
	err := f.File.Fsync(ctx)
	f.fs.add(opFsync, s, 0)
	return err
}

func (f *tracedFile) Close() error {
	s := f.fs.now()
	err := f.File.Close()
	f.fs.add(opClose, s, 0)
	return err
}

// --- objstore seam ------------------------------------------------------------

// timedStore records one span per verb with the key's class (the prefix up to
// the first ':': i: inode, e: dentries, j: journal, d: data).
type timedStore struct {
	inner objstore.Store
	rec   *recorder
	now   func() time.Duration
}

func keyClass(key string) byte {
	if len(key) >= 2 && key[1] == ':' {
		return key[0]
	}
	return 0
}

func (s *timedStore) add(op opName, key string, start time.Duration, bytes int64) {
	end := int64(s.now())
	s.rec.mu.Lock()
	s.rec.store = append(s.rec.store, span{start: int64(start), end: end, bytes: bytes, phase: uint16(s.rec.cur.Load()), op: op, class: keyClass(key)})
	s.rec.mu.Unlock()
}

func (s *timedStore) Put(key string, data []byte) error {
	t := s.now()
	err := s.inner.Put(key, data)
	s.add(opPut, key, t, int64(len(data)))
	return err
}

func (s *timedStore) Get(key string) ([]byte, error) {
	t := s.now()
	b, err := s.inner.Get(key)
	s.add(opGet, key, t, int64(len(b)))
	return b, err
}

func (s *timedStore) GetRange(key string, off, n int64) ([]byte, error) {
	t := s.now()
	b, err := s.inner.GetRange(key, off, n)
	s.add(opGetRange, key, t, int64(len(b)))
	return b, err
}

func (s *timedStore) Delete(key string) error {
	t := s.now()
	err := s.inner.Delete(key)
	s.add(opDelete, key, t, 0)
	return err
}

func (s *timedStore) List(prefix string) ([]string, error) {
	t := s.now()
	k, err := s.inner.List(prefix)
	s.add(opList, prefix, t, 0)
	return k, err
}

func (s *timedStore) Head(key string) (int64, error) {
	t := s.now()
	n, err := s.inner.Head(key)
	s.add(opHead, key, t, 0)
	return n, err
}
