package cache

import (
	"container/list"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Config tunes the data object cache.
type Config struct {
	// EntrySize is the cache entry granularity; it must equal the PRT chunk
	// size so one entry maps to one data object (2 MiB by default).
	EntrySize int64
	// MaxEntries bounds the cache; LRU eviction writes dirty entries back.
	MaxEntries int
	// MaxReadahead bounds the sequential read-ahead window (8 MiB default,
	// as in CephFS; the paper's goofys comparison raises it to 400 MiB).
	MaxReadahead int64
	// FlushParallelism bounds the concurrent write-backs one Flush issues
	// (the write-back thread pool); default 8.
	FlushParallelism int
	// PrefetchParallelism bounds in-flight read-ahead fetches (the FUSE
	// daemon's read-ahead thread pool); default 64.
	PrefetchParallelism int
	// Cost charges CPU time for memory copies in simulation.
	Cost sim.CostModel
}

// DefaultConfig mirrors the paper's defaults.
func DefaultConfig() Config {
	return Config{EntrySize: 2 << 20, MaxEntries: 1024, MaxReadahead: 8 << 20}
}

// Stats counts cache activity.
type Stats struct {
	Hits, Misses, Readaheads, Writebacks, Evictions atomic.Int64
	// WritebackErrors counts failed eviction write-backs; the entry stays
	// resident and dirty, and the next Flush retries and reports the error.
	WritebackErrors atomic.Int64
}

// Cache is one client's user-level data object cache. It is write-back: WRITE
// dirties entries; Flush (the fsync path) and evictions write them to the
// object store through the PRT.
type Cache struct {
	env sim.Env
	tr  *prt.Translator
	cfg Config

	mu          sync.Mutex
	files       map[types.Ino]*fileCache
	lru         *list.List // *entry; front = most recent
	prefetchSem *sim.Chan[struct{}]
	// flushLocks serialize Flush per file: a lease recall must wait for any
	// in-flight background write-back, or its PUTs could land after a
	// subsequent truncate/rewrite and resurrect stale chunks. An entry lives
	// only while a Flush holds or waits for it.
	flushLocks map[types.Ino]*flushLock
	stats      Stats
}

// flushLock is one file's Flush serializer; refs counts holder plus waiters.
type flushLock struct {
	mu   *sim.Mutex
	refs int
}

// fileCache is the per-file cache state.
type fileCache struct {
	ino  types.Ino
	tree radix[entry]

	// Read-ahead state (paper §III-D): window grows while reads stay
	// sequential, and jumps to the maximum when reading starts at offset 0.
	raNextOff int64 // next sequential offset expected
	raWindow  int64 // current window size in bytes
	raEdge    int64 // offset up to which prefetches have been issued

	// unstored is the watermark of a file this client created (see Created):
	// the store holds no chunk at or above it that has no resident entry.
	unstored uint64
}

const noWatermark = ^uint64(0) // any file this client did not create

// entry is one cached data object.
type entry struct {
	ino     types.Ino
	idx     uint64
	data    []byte // valid prefix of the chunk; Write owns it unless held
	dirty   bool
	ver     uint64              // bumped by every mutation; write-backs detect concurrent writes
	loading *sim.Chan[struct{}] // non-nil while a fetch is in flight; Close = ready
	wb      *sim.Chan[struct{}] // non-nil while a write-back (eviction or Flush) is in flight; Close = done
	held    bool                // the in-flight write-back still has data: Write must replace it, not mutate it
	lruElem *list.Element
}

// holdLocked starts a write-back of e and lends it e.data, spare capacity
// included, until releaseLocked: no copy is taken, so until then nobody may
// write the buffer (Write replaces it instead). Callers hold c.mu.
func (c *Cache) holdLocked(e *entry) (data []byte, ver uint64) {
	e.wb = sim.NewChan[struct{}](c.env)
	e.held = true
	return e.data, e.ver
}

// releaseLocked ends e's write-back and wakes whoever waits for it.
func (e *entry) releaseLocked() {
	e.held = false
	e.wb.Close()
	e.wb = nil
}

// New creates a cache over the translator. The entry size is forced to the
// translator's chunk size.
func New(env sim.Env, tr *prt.Translator, cfg Config) *Cache {
	if cfg.EntrySize <= 0 || cfg.EntrySize != tr.ChunkSize() {
		cfg.EntrySize = tr.ChunkSize()
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 1024
	}
	if cfg.MaxReadahead < 0 {
		cfg.MaxReadahead = 0
	}
	if cfg.FlushParallelism <= 0 {
		cfg.FlushParallelism = 8
	}
	if cfg.PrefetchParallelism <= 0 {
		cfg.PrefetchParallelism = 64
	}
	c := &Cache{
		env: env, tr: tr, cfg: cfg,
		files:      make(map[types.Ino]*fileCache),
		lru:        list.New(),
		flushLocks: make(map[types.Ino]*flushLock),
	}
	c.prefetchSem = sim.NewChan[struct{}](env)
	for i := 0; i < cfg.PrefetchParallelism; i++ {
		c.prefetchSem.Send(struct{}{})
	}
	return c
}

// Stat returns the cache counters.
func (c *Cache) Stat() *Stats { return &c.stats }

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func (c *Cache) file(ino types.Ino) *fileCache {
	fc := c.files[ino]
	if fc == nil {
		fc = &fileCache{ino: ino, unstored: noWatermark}
		c.files[ino] = fc
	}
	return fc
}

// Created records that this client has just created ino and holds its write
// lease: the store has no chunk of it that did not leave this cache, and
// ensure fetches none at or above the watermark. An eviction raises the
// watermark past the entry it lets go; Invalidate and Clear (a recall, a
// truncate, the last close) drop the fileCache and the knowledge with it.
func (c *Cache) Created(ino types.Ino) {
	c.mu.Lock()
	c.file(ino).unstored = 0
	c.mu.Unlock()
}

// Read copies file bytes [off, off+len(buf)) into buf through the cache,
// returning the bytes read (clipped to size, the caller-tracked file size).
// Sequential access triggers asynchronous read-ahead.
func (c *Cache) Read(ino types.Ino, buf []byte, off, size int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("cache: negative offset: %w", types.ErrInval)
	}
	if off >= size {
		return 0, nil
	}
	if max := size - off; int64(len(buf)) > max {
		buf = buf[:max]
	}
	c.readahead(ino, off, int64(len(buf)), size)
	read := 0
	for read < len(buf) {
		pos := off + int64(read)
		idx := uint64(pos / c.cfg.EntrySize)
		inOff := pos % c.cfg.EntrySize
		want := int64(len(buf) - read)
		if r := c.cfg.EntrySize - inOff; want > r {
			want = r
		}
		e, err := c.ensure(ino, idx, true)
		if err != nil {
			return read, err
		}
		// Copy out; bytes beyond the entry's valid prefix are zero (hole).
		n := 0
		if inOff < int64(len(e.data)) {
			n = copy(buf[read:read+int(want)], e.data[inOff:])
		}
		for i := n; int64(i) < want; i++ {
			buf[read+i] = 0
		}
		c.env.Sleep(c.cfg.Cost.MemCopy(want))
		read += int(want)
	}
	return read, nil
}

// streamRequest is the size FUSE splits a write at, and the request size of
// streamed ingest (fio, tar): a file's first chunk holding less may be the
// whole file, one holding as much has more coming.
const streamRequest = 128 << 10

// capacity is the size of the buffer Write moves an entry to when it holds
// none it may write (first write, outgrown, or lent to a write-back): need
// bytes and, always, wire.TrailerSize spare ones for the write-back to seal
// in place. In a file's first chunk below a stream request it is the power
// of two that fits, 4 KiB at least and at least double the buffer replaced,
// so a small file costs what it holds and growing to a stream request
// re-copies under streamRequest bytes in all; otherwise it is the whole
// chunk at once and the entry never moves again.
func (c *Cache) capacity(idx uint64, need int64, old int) int64 {
	whole := c.cfg.EntrySize + wire.TrailerSize
	if idx != 0 || need >= streamRequest {
		return whole
	}
	n := int64(4 << 10)
	for n < need+wire.TrailerSize || n < 2*int64(old) {
		n <<= 1
	}
	return min(n, whole)
}

// Write stores buf at off in the cache (write-back). The caller updates the
// inode size; partially covered, previously unseen chunks are fetched first
// so a later flush cannot clobber bytes outside the write: an entry always
// holds its chunk's whole valid prefix, which is what lets write-back PUT it
// without reading the stored chunk. The bytes are copied once, into a buffer
// this entry owns (see capacity); later requests grow it in place while the
// CRC trailer still fits behind them.
func (c *Cache) Write(ino types.Ino, buf []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("cache: negative offset: %w", types.ErrInval)
	}
	written := 0
	for written < len(buf) {
		pos := off + int64(written)
		idx := uint64(pos / c.cfg.EntrySize)
		inOff := pos % c.cfg.EntrySize
		want := int64(len(buf) - written)
		if r := c.cfg.EntrySize - inOff; want > r {
			want = r
		}
		full := inOff == 0 && want == c.cfg.EntrySize
		e, err := c.ensure(ino, idx, !full)
		if err != nil {
			return err
		}
		c.mu.Lock()
		if e.lruElem == nil { // evicted or invalidated since ensure: bytes put here would be lost
			c.mu.Unlock()
			continue
		}
		have := int64(len(e.data))
		need := max(inOff+want, have)
		if e.held || int64(cap(e.data)) < need+wire.TrailerSize {
			// First write, outgrown, or a write-back has the buffer: move to
			// one this entry owns (ver keeps the entry dirty past that
			// write-back).
			own := make([]byte, have, c.capacity(idx, need, cap(e.data)))
			copy(own, e.data)
			e.data, e.held = own, false
		}
		if have < need {
			e.data = e.data[:need]
			if inOff > have {
				clear(e.data[have:inOff]) // a hole; the spare bytes may hold an old trailer
			}
		}
		copy(e.data[inOff:], buf[written:written+int(want)])
		e.dirty = true
		e.ver++
		c.touchLocked(e)
		c.mu.Unlock()
		c.env.Sleep(c.cfg.Cost.MemCopy(want))
		written += int(want)
	}
	return nil
}

// ensure returns the entry for (ino, idx), fetching it from the object store
// when fetch is true and it is absent. It may block on an in-flight fetch, its
// own or a read-ahead's, and counts a hit when that one lands.
func (c *Cache) ensure(ino types.Ino, idx uint64, fetch bool) (*entry, error) {
	for {
		c.mu.Lock()
		fc := c.file(ino)
		if e, ok := fc.tree.Get(idx); ok {
			if e.loading == nil {
				c.stats.Hits.Add(1)
				c.touchLocked(e)
				c.mu.Unlock()
				return e, nil
			}
			ready := e.loading
			c.mu.Unlock()
			ready.Recv() // closed when the fetch completes
			continue
		}
		c.stats.Misses.Add(1)
		e := c.insertLocked(fc, idx, fetch)
		c.mu.Unlock()
		if e.loading == nil {
			return e, nil
		}
		if err := c.load(e, true); err != nil {
			return nil, err
		}
		return e, nil
	}
}

// insertLocked makes the absent entry idx of fc, and evicts to fit. With fetch
// set, and only for a chunk the store may hold, the entry is a reservation:
// loading until load fills it, and never evicted before. Callers hold c.mu,
// which a dirty victim's write-back drops for its PUT.
func (c *Cache) insertLocked(fc *fileCache, idx uint64, fetch bool) *entry {
	e := &entry{ino: fc.ino, idx: idx}
	if fetch && idx < fc.unstored {
		e.loading = sim.NewChan[struct{}](c.env)
	}
	fc.tree.Insert(idx, e)
	e.lruElem = c.lru.PushFront(e)
	c.evictLocked(e)
	return e
}

// errNoSlot fails a read-ahead reservation whose goroutine got no prefetch
// slot: the cache's environment was shut down.
var errNoSlot = fmt.Errorf("cache: shut down during read-ahead: %w", types.ErrIO)

// load fills the reservation e from the store (or, with fetch false, fails
// it) and wakes whoever waits on it. A failed entry leaves the cache, so its
// waiters fetch it anew: resident with no data, it would serve zeros for bytes
// the store holds. Only e leaves: an Invalidate while the GET was out may have
// let a newer entry, maybe dirty, take idx.
func (c *Cache) load(e *entry, fetch bool) error {
	data, err := []byte(nil), errNoSlot
	if fetch {
		data, err = c.fetchChunk(e.ino, e.idx)
	}
	c.mu.Lock()
	e.data = data
	ready := e.loading
	e.loading = nil
	if err != nil {
		if e.lruElem != nil {
			c.lru.Remove(e.lruElem)
			e.lruElem = nil
		}
		if fc := c.files[e.ino]; fc != nil {
			if cur, ok := fc.tree.Get(e.idx); ok && cur == e {
				fc.tree.Delete(e.idx)
			}
			if fc.tree.Len() == 0 && fc.raWindow == 0 {
				delete(c.files, e.ino)
			}
		}
	}
	c.mu.Unlock()
	ready.Close()
	return err
}

// fetchChunk reads and CRC-verifies one data object; a missing object is a
// hole (empty data). A chunk failing verification surfaces a typed integrity
// error rather than silently wrong bytes.
func (c *Cache) fetchChunk(ino types.Ino, idx uint64) ([]byte, error) {
	data, err := c.tr.GetChunk(ino, int64(idx))
	if err != nil {
		if errors.Is(err, types.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("cache: fetch chunk %d of %s: %w", idx, ino.Short(), err)
	}
	return data, nil
}

// readahead updates the sequential window and reserves the chunks in it for
// asynchronous prefetches (paper: window doubles while reads stay sequential,
// capped at MaxReadahead; a read starting at offset 0 jumps straight to the
// maximum). The reservation is made in the c.mu hold that finds the chunk
// absent, and its goroutine only fetches into it, so a chunk is fetched once
// while it stays cached. The request's own chunks are the reader's to fetch.
func (c *Cache) readahead(ino types.Ino, off, n, size int64) {
	if c.cfg.MaxReadahead < c.cfg.EntrySize {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.file(ino)
	switch {
	case off == 0 && fc.raNextOff == 0:
		fc.raWindow = c.cfg.MaxReadahead
	case off == fc.raNextOff:
		if fc.raWindow == 0 {
			fc.raWindow = c.cfg.EntrySize
		} else if fc.raWindow < c.cfg.MaxReadahead {
			fc.raWindow *= 2
			if fc.raWindow > c.cfg.MaxReadahead {
				fc.raWindow = c.cfg.MaxReadahead
			}
		}
	default:
		// Non-sequential: reset.
		fc.raWindow = 0
		fc.raEdge = 0
	}
	fc.raNextOff = off + n
	if fc.raWindow == 0 {
		return
	}
	target := min(off+n+fc.raWindow, size)
	idx := uint64(max(fc.raEdge, off+n+c.cfg.EntrySize-1) / c.cfg.EntrySize)
	fc.raEdge = target
	// A write-back in insertLocked drops c.mu: stop if ino was dropped meanwhile.
	for ; int64(idx)*c.cfg.EntrySize < target && c.files[ino] == fc; idx++ {
		if _, ok := fc.tree.Get(idx); ok || idx >= fc.unstored {
			continue // resident, in flight, or a hole the reader makes
		}
		e := c.insertLocked(fc, idx, true)
		c.stats.Readaheads.Add(1)
		c.env.Go(func() {
			_, ok := c.prefetchSem.Recv()
			if ok {
				defer c.prefetchSem.Send(struct{}{})
			}
			_ = c.load(e, ok)
		})
	}
}

// touchLocked moves e to the LRU front. Callers hold c.mu.
func (c *Cache) touchLocked(e *entry) {
	if e.lruElem != nil {
		c.lru.MoveToFront(e.lruElem)
	}
}

// evictLocked evicts LRU entries (sparing keep) until the cache fits.
// Callers hold c.mu; dirty victims are written back with the lock dropped.
func (c *Cache) evictLocked(keep *entry) {
	for c.lru.Len() > c.cfg.MaxEntries {
		el := c.lru.Back()
		if el == nil {
			return
		}
		victim := el.Value.(*entry)
		if victim == keep || victim.loading != nil || victim.wb != nil {
			// In-use or in-flight: move it up and stop rather than spin.
			c.lru.MoveToFront(el)
			return
		}
		if victim.dirty {
			// Write back while the entry is still visible, so concurrent
			// readers never fall through to pre-writeback store state. The
			// dirty bit stays set until the PUT succeeds, and a concurrent
			// Write replaces the held buffer, so it cannot tear the
			// in-flight PUT. The wb marker keeps other evictors off this
			// entry and lets Flush wait for the write-back to settle.
			data, ver := c.holdLocked(victim)
			c.stats.Writebacks.Add(1)
			c.mu.Unlock()
			err := c.tr.PutChunkOwned(victim.ino, int64(victim.idx), data)
			c.mu.Lock()
			victim.releaseLocked()
			if err != nil {
				// Still dirty, still resident: the next Flush retries the
				// PUT and reports the failure. Rotate the victim to the
				// front so the next eviction picks a healthier entry.
				c.stats.WritebackErrors.Add(1)
				if victim.lruElem != nil {
					c.lru.MoveToFront(victim.lruElem)
				}
				return
			}
			if victim.ver != ver || victim.lruElem == nil {
				continue // rewritten or removed while unlocked; stays as is
			}
			victim.dirty = false
		}
		c.lru.Remove(el)
		victim.lruElem = nil
		if fc := c.files[victim.ino]; fc != nil {
			fc.tree.Delete(victim.idx)
			fc.unstored = max(fc.unstored, victim.idx+1) // noWatermark stays
			if fc.tree.Len() == 0 {
				delete(c.files, victim.ino)
			}
		}
		c.stats.Evictions.Add(1)
	}
}

// lockFlush takes ino's flush serializer, creating it on first use.
func (c *Cache) lockFlush(ino types.Ino) *flushLock {
	c.mu.Lock()
	l := c.flushLocks[ino]
	if l == nil {
		l = &flushLock{mu: sim.NewMutex(c.env)}
		c.flushLocks[ino] = l
	}
	l.refs++
	c.mu.Unlock()
	l.mu.Lock()
	return l
}

// unlockFlush releases l and forgets it once nobody holds or awaits it.
func (c *Cache) unlockFlush(ino types.Ino, l *flushLock) {
	l.mu.Unlock()
	c.mu.Lock()
	if l.refs--; l.refs == 0 {
		delete(c.flushLocks, ino)
	}
	c.mu.Unlock()
}

// Flush writes back every dirty entry of ino (fsync). Entries stay resident.
// Flushes of the same file serialize, so a lease recall observing Flush's
// return knows no earlier write-back is still in flight. Flush also waits
// for concurrent eviction write-backs and retries the ones that failed, so a
// successful return means every byte dirtied before the call is durable.
func (c *Cache) Flush(ino types.Ino) error {
	defer c.unlockFlush(ino, c.lockFlush(ino))
	type pending struct {
		e    *entry
		ver  uint64
		data []byte
	}
	for {
		c.mu.Lock()
		fc := c.files[ino]
		if fc == nil {
			c.mu.Unlock()
			return nil
		}
		var work []pending
		var inflight []*sim.Chan[struct{}]
		fc.tree.Range(func(idx uint64, e *entry) bool {
			switch {
			case e.wb != nil:
				// An eviction write-back owns this entry; wait for it below
				// and re-examine (it leaves the entry dirty on failure).
				inflight = append(inflight, e.wb)
			case e.dirty:
				// Hold, not copy: a concurrent Write moves the entry to a new
				// buffer, so the PUT below cannot be torn.
				data, ver := c.holdLocked(e)
				work = append(work, pending{e: e, ver: ver, data: data})
			}
			return true
		})
		c.mu.Unlock()
		if len(work) == 0 && len(inflight) == 0 {
			return nil
		}
		errs := make([]error, len(work))
		settle := func(i int, err error) {
			errs[i] = err
			p := work[i]
			c.mu.Lock()
			if err == nil && p.e.ver == p.ver {
				// Only mark clean if no Write landed mid-PUT; otherwise
				// the entry keeps its dirty bit for the next flush.
				p.e.dirty = false
			}
			p.e.releaseLocked()
			c.mu.Unlock()
		}
		put := func(i int) {
			err := c.tr.PutChunkOwned(ino, int64(work[i].e.idx), work[i].data)
			if err != nil {
				err = fmt.Errorf("cache: flush %s: %w", ino.Short(), err)
			} else {
				c.stats.Writebacks.Add(1)
			}
			settle(i, err)
		}
		switch len(work) {
		case 0: // only eviction write-backs to wait for
		case 1:
			// A closed small file: its one PUT runs on the caller, with no
			// semaphore, group or goroutine made for it.
			put(0)
		default:
			// Write back with bounded parallelism: independent chunks flush
			// concurrently, which is what lets the write-back path saturate
			// the object store instead of serializing one PUT at a time.
			sem := sim.NewChan[struct{}](c.env)
			for i := 0; i < c.cfg.FlushParallelism; i++ {
				sem.Send(struct{}{})
			}
			g := sim.NewGroup(c.env)
			for i := range work {
				i := i
				if _, ok := sem.Recv(); !ok {
					settle(i, fmt.Errorf("cache: shut down during flush: %w", types.ErrIO))
					continue
				}
				g.Go(func() {
					defer sem.Send(struct{}{})
					put(i)
				})
			}
			g.Wait()
		}
		for _, ch := range inflight {
			ch.Recv() // closed when the eviction write-back settles
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if len(inflight) == 0 {
			return nil
		}
	}
}

// FlushAll writes back every dirty entry of every file (fsync of the whole
// mount; the benchmark phase barrier).
func (c *Cache) FlushAll() error {
	c.mu.Lock()
	inos := make([]types.Ino, 0, len(c.files))
	for ino := range c.files {
		inos = append(inos, ino)
	}
	c.mu.Unlock()
	slices.SortFunc(inos, types.Ino.Compare)
	for _, ino := range inos {
		if err := c.Flush(ino); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate drops every entry of ino without writing anything back — the
// flush-broadcast path that prevents stale reads when another client gains a
// write lease. Callers flush first when they hold dirty data they care about.
func (c *Cache) Invalidate(ino types.Ino) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.files[ino]
	if fc == nil {
		return
	}
	fc.tree.Range(func(idx uint64, e *entry) bool {
		if e.lruElem != nil {
			c.lru.Remove(e.lruElem)
			e.lruElem = nil
		}
		return true
	})
	delete(c.files, ino)
	// The flush lock, if a Flush holds it, outlives this: its last user drops it.
}

// Clear drops every entry of every file without write-back (the global
// "echo 3 > drop_caches" benchmark step; callers flush first).
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.files = make(map[types.Ino]*fileCache)
	c.lru.Init()
}

// Dirty reports whether ino has unwritten data.
func (c *Cache) Dirty(ino types.Ino) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	fc := c.files[ino]
	if fc == nil {
		return false
	}
	dirty := false
	fc.tree.Range(func(idx uint64, e *entry) bool {
		if e.dirty {
			dirty = true
			return false
		}
		return true
	})
	return dirty
}

// Readahead state accessors used by tests and the fio harness.

// Window returns ino's current read-ahead window in bytes.
func (c *Cache) Window(ino types.Ino) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fc := c.files[ino]; fc != nil {
		return fc.raWindow
	}
	return 0
}
