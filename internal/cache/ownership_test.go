package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// storedChunk returns the verified payload of ino's chunk idx as stored.
func storedChunk(t *testing.T, s objstore.Store, ino types.Ino, idx int64) []byte {
	t.Helper()
	raw, err := s.Get(prt.DataKey(ino, idx))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := wire.Unseal(raw)
	if err != nil {
		t.Fatalf("stored frame of chunk %d: %v", idx, err)
	}
	return payload
}

// The ownership rule: while a write-back's PUT has an entry's buffer, a Write
// to that entry goes to a new buffer. The gated store reads half the value,
// parks, and reads the rest (trailer included) after the Write, so a Write
// that touched the held buffer shows up as a CRC mismatch or wrong bytes.
func TestWriteDuringWritebackLeavesHeldBufferAlone(t *testing.T) {
	type write struct {
		name string
		off  int64
		n    int
	}
	geometries := []struct {
		name        string // subtest name prefix
		chunk, have int
		writes      []write
	}{
		{"", 64, 48, []write{
			{"inside len", 32, 8},     // in the half the parked PUT has yet to read
			{"extending len", 40, 16}, // crosses the in-place trailer at [48,52)
			{"full chunk", 0, 64},
		}},
		// A size-classed entry: 3,000 bytes of a 64 KiB chunk in a 4 KiB buffer.
		{"size-classed/", 64 << 10, 3000, []write{
			{"inside len", 2000, 8},
			{"extending len within the capacity", 2990, 100}, // crosses the trailer at [3000,3004)
			{"outgrowing the capacity", 4000, 200},
		}},
	}
	for _, geo := range geometries {
		chunk, have := geo.chunk, geo.have
		for _, holder := range []string{"eviction", "flush"} {
			for _, w := range geo.writes {
				t.Run(holder+"/"+geo.name+w.name, func(t *testing.T) {
					env := sim.NewRealEnv()
					t.Cleanup(env.Shutdown)
					ino := types.NewInoSource(7).Next()
					gs := &gateStore{
						Store:   objstore.NewMemStore(),
						gateKey: prt.DataKey(ino, 0),
						entered: make(chan struct{}),
						release: make(chan struct{}),
					}
					maxEntries := 100
					if holder == "eviction" {
						maxEntries = 1
					}
					c := New(env, prt.New(gs, int64(chunk)), Config{EntrySize: int64(chunk), MaxEntries: maxEntries})

					before := bytes.Repeat([]byte{0xAA}, have)
					if err := c.Write(ino, before, 0); err != nil {
						t.Fatal(err)
					}
					held := make(chan error, 1)
					if holder == "eviction" {
						// A second chunk overflows the 1-entry cache: chunk 0 is
						// written back from inside this Write.
						env.Go(func() { held <- c.Write(ino, []byte{1}, int64(chunk)) })
					} else {
						env.Go(func() { held <- c.Flush(ino) })
					}
					<-gs.entered // the PUT has the buffer and is mid-value
					after := append(make([]byte, 0, chunk), before...)
					if end := int(w.off) + w.n; end > len(after) {
						after = after[:end]
					}
					patch := bytes.Repeat([]byte{0xBB}, w.n)
					copy(after[w.off:], patch)
					if err := c.Write(ino, patch, w.off); err != nil {
						t.Fatal(err)
					}
					close(gs.release)
					if err := <-held; err != nil {
						t.Fatal(err)
					}
					if got := storedChunk(t, gs, ino, 0); !bytes.Equal(got, before) {
						t.Fatalf("held PUT stored %x, want the pre-write bytes", got)
					}
					if !c.Dirty(ino) {
						t.Fatal("the write-back cleared the dirty bit of a Write it did not store")
					}
					if err := c.Flush(ino); err != nil {
						t.Fatal(err)
					}
					if got := storedChunk(t, gs, ino, 0); !bytes.Equal(got, after) {
						t.Fatalf("next Flush stored %x, want %x", got, after)
					}
					if c.Dirty(ino) {
						t.Fatal("Dirty after the second flush")
					}
				})
			}
		}
	}
}

// A write past the valid prefix leaves a hole that must read as zeros, not as
// the trailer an earlier write-back sealed into the spare capacity.
func TestGrowInPlaceZeroesHoleOverOldTrailer(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 100, 0)
	ino := types.NewInoSource(8).Next()
	if err := c.Write(ino, bytes.Repeat([]byte{0xFF}, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ino); err != nil { // seals 4 bytes at [16,20)
		t.Fatal(err)
	}
	if err := c.Write(ino, []byte{7}, 32); err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{0xFF}, 16), make([]byte, 17)...)
	want[32] = 7
	got := make([]byte, 33)
	if _, err := c.Read(ino, got, 0, 33); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("cache read %x (%v), want %x", got, err, want)
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	if got := storedChunk(t, tr.Store(), ino, 0); !bytes.Equal(got, want) {
		t.Fatalf("stored %x, want %x", got, want)
	}
}

// Regression: flushLocks kept one mutex per file ever flushed.
func TestFlushLocksDoNotAccumulate(t *testing.T) {
	c, _, _ := cacheSetup(t, 64, 100, 0)
	src := types.NewInoSource(9)
	for i := 0; i < 10000; i++ {
		ino := src.Next()
		if err := c.Write(ino, []byte{byte(i)}, 0); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(ino); err != nil {
			t.Fatal(err)
		}
		c.Invalidate(ino)
	}
	if n := len(c.flushLocks); n != 0 {
		t.Fatalf("%d flush locks left after 10000 write+flush+invalidate", n)
	}
}

// A flush lock is dropped by its last user, not by Invalidate: a second Flush
// queued behind a parked one must not start before it returns.
func TestFlushLockSurvivesInvalidateWhileHeld(t *testing.T) {
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	ino := types.NewInoSource(10).Next()
	gs := &gateStore{
		Store:   objstore.NewMemStore(),
		gateKey: prt.DataKey(ino, 0),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	var puts atomic.Int64
	c := New(env, prt.New(countingStore{gs, &puts}, 64), Config{EntrySize: 64, MaxEntries: 100})
	if err := c.Write(ino, []byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	first, second := make(chan error, 1), make(chan error, 1)
	env.Go(func() { first <- c.Flush(ino) })
	<-gs.entered
	c.Invalidate(ino)
	if err := c.Write(ino, []byte{2}, 64); err != nil {
		t.Fatal(err)
	}
	env.Go(func() { second <- c.Flush(ino) })
	for queued, deadline := false, time.Now().Add(5*time.Second); !queued; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second Flush did not queue on the first one's lock")
		}
		c.mu.Lock()
		l := c.flushLocks[ino]
		queued = l != nil && l.refs == 2
		c.mu.Unlock()
	}
	time.Sleep(10 * time.Millisecond) // room for a second PUT, were the lock not exclusive
	if n := puts.Load(); n != 1 {
		t.Fatalf("%d PUTs while the first Flush is parked: the second overlapped it", n)
	}
	close(gs.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if puts.Load() != 2 || len(c.flushLocks) != 0 {
		t.Fatalf("puts = %d, flush locks left = %d", puts.Load(), len(c.flushLocks))
	}
}

type countingStore struct {
	objstore.Store
	puts *atomic.Int64
}

func (s countingStore) Put(key string, data []byte) error {
	s.puts.Add(1)
	return s.Store.Put(key, data)
}

// Seeded model test: random operations through a 2-entry cache against a
// flat byte slice, so every write is evicted, refetched and regrown.
func TestCacheMatchesFlatModel(t *testing.T) {
	const chunk, span = 64, 8 * 64
	matchFlatModel(t, chunk, span, func(rng *rand.Rand, _ int) (off, n int) {
		off = rng.Intn(span - 1)
		return off, 1 + rng.Intn(min(span-off, 3*chunk))
	})
}

// The same at a chunk large enough to have size classes, over eight chunks of
// a file that mostly grows by small writes near its end and sometimes is
// written far from it: its first chunk's buffer is grown in place, outgrown,
// evicted, refetched short and grown again, and later chunks start as holes.
func TestSizeClassedCacheMatchesFlatModel(t *testing.T) {
	const chunk, span = 32 << 10, 8 * 32 << 10
	matchFlatModel(t, chunk, span, func(rng *rand.Rand, have int) (off, n int) {
		off = rng.Intn(min(span-1, have+4096))
		if rng.Intn(8) == 0 {
			off = rng.Intn(span - 1) // anywhere: leaves a hole, or lands in one
		}
		return off, 1 + rng.Intn(min(span-off, 2048))
	})
}

// matchFlatModel runs seeded scripts of writes (at pick's offset and length,
// given the file's length so far), reads, flushes and invalidations, each
// script twice: on a plain inode and on one the cache is told was Created. A
// chunk is PUT only from an entry that holds its whole valid prefix, fetched
// or known never to have been stored, so both runs agree with the model at
// every read and leave byte-identical stores.
func matchFlatModel(t *testing.T, chunk int64, span int, pick func(rng *rand.Rand, have int) (off, n int)) {
	for seed := int64(1); seed <= 20; seed++ {
		plain := runFlatModel(t, seed, false, chunk, span, pick)
		created := runFlatModel(t, seed, true, chunk, span, pick)
		if !reflect.DeepEqual(plain, created) {
			t.Fatalf("seed %d: the store after a Created run (%d objects) differs from the plain run's (%d)", seed, len(created), len(plain))
		}
	}
}

// runFlatModel runs one seed's script and returns what the store holds after
// the final flush, key by key.
func runFlatModel(t *testing.T, seed int64, created bool, chunk int64, span int, pick func(rng *rand.Rand, have int) (off, n int)) map[string]string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c, tr, _ := cacheSetup(t, chunk, 2, 0)
	ino := types.NewInoSource(seed).Next()
	if created {
		c.Created(ino)
	}
	model := make([]byte, 0, span)
	check := func(step int, what string, got []byte, off int) {
		t.Helper()
		if !bytes.Equal(got, model[off:off+len(got)]) {
			t.Fatalf("seed %d created=%v step %d: %s at %d differs from the model", seed, created, step, what, off)
		}
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			off, n := pick(rng, len(model))
			buf := make([]byte, n)
			rng.Read(buf)
			if err := c.Write(ino, buf, int64(off)); err != nil {
				t.Fatal(err)
			}
			if end := off + len(buf); end > len(model) {
				model = model[:end] // the gap is zeros: model never shrinks
			}
			copy(model[off:], buf)
		case op < 8 && len(model) > 0:
			off := rng.Intn(len(model))
			buf := make([]byte, 1+rng.Intn(len(model)-off))
			if n, err := c.Read(ino, buf, int64(off), int64(len(model))); err != nil || n != len(buf) {
				t.Fatalf("seed %d step %d: Read = %d, %v", seed, step, n, err)
			}
			check(step, "cache read", buf, off)
		default:
			if err := c.Flush(ino); err != nil {
				t.Fatal(err)
			}
			if op == 9 {
				c.Invalidate(ino)
			}
		}
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(model))
	if _, err := tr.ReadAt(ino, got, 0, int64(len(got))); err != nil {
		t.Fatal(err)
	}
	check(400, "store read", got, 0)
	keys, err := tr.Store().List("")
	if err != nil {
		t.Fatal(err)
	}
	objects := make(map[string]string, len(keys))
	for _, key := range keys {
		data, err := tr.Store().Get(key)
		if err != nil {
			t.Fatal(err)
		}
		objects[key] = string(data)
	}
	return objects
}

// nullStore acknowledges PUTs without keeping them, so what a write-back
// allocates is what cache and prt allocate.
type nullStore struct{ objstore.Store }

func (nullStore) Put(string, []byte) error { return nil }
func (nullStore) Get(key string) ([]byte, error) {
	return nil, fmt.Errorf("get %q: %w", key, objstore.ErrNotExist)
}

func TestSequentialFillAllocatesOneBuffer(t *testing.T) {
	const chunk, req = 2 << 20, 128 << 10
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	ino := types.NewInoSource(11).Next()
	buf := make([]byte, req)
	var c *Cache
	fill := func(idx int64, from, to int) {
		for i := from; i < to; i++ {
			if err := c.Write(ino, buf, idx*chunk+int64(i)*req); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Requests 2..16 of a chunk grow its entry in place: no allocation at
	// all. (AllocsPerRun calls the function twice, hence two started chunks.)
	c = New(env, prt.New(nullStore{}, chunk), Config{EntrySize: chunk, MaxEntries: 2})
	fill(0, 0, 1)
	fill(1, 0, 1)
	next := int64(0)
	if n := testing.AllocsPerRun(1, func() { fill(next, 1, chunk/req); next++ }); n != 0 {
		t.Fatalf("15 growing requests into a started chunk: %v allocations, want 0", n)
	}
	// In bytes: a chunk costs one chunk-sized buffer from its first request
	// to its last, and its write-back costs no other, by Flush or by
	// eviction (where the evicting request allocates its own chunk's buffer).
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slack = 64 << 10
	c = New(env, prt.New(nullStore{}, chunk), Config{EntrySize: chunk, MaxEntries: 1})
	if got := allocated(func() { fill(0, 0, chunk/req) }); got < chunk || got > chunk+slack {
		t.Fatalf("filling one chunk allocated %d bytes, want one %d-byte buffer", got, chunk)
	}
	if got := allocated(func() { fill(1, 0, 1) }); got < chunk || got > chunk+slack || c.Stat().Evictions.Load() != 1 {
		t.Fatalf("evicting a chunk by starting the next allocated %d bytes, want one %d-byte buffer", got, chunk)
	}
	if got := allocated(func() {
		if err := c.Flush(ino); err != nil {
			t.Fatal(err)
		}
	}); got > slack || c.Dirty(ino) {
		t.Fatalf("flushing one chunk allocated %d bytes in cache+prt", got)
	}
}

// allocated is what fn allocates, in bytes, process-wide.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The capacity rule at the production chunk size: a file's first chunk costs
// what it holds until it holds a stream request, and a write-back seals its
// trailer in the buffer's spare bytes whatever the size class, the boundary
// sizes (trailer fits exactly, by one byte not, payload fills the class)
// included.
func TestSmallFileAllocatesWhatItHolds(t *testing.T) {
	const chunk = 2 << 20
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	c := New(env, prt.New(nullStore{}, chunk), Config{EntrySize: chunk, MaxEntries: 16})
	src := types.NewInoSource(14)
	cases := []struct {
		size, req int
		most      uint64 // written and flushed, cache + prt in all
	}{
		{3901, 3901, 16 << 10},
		{4092, 4092, 16 << 10},
		{4093, 4093, 16 << 10},
		{4096, 4096, 16 << 10},
		{8 << 10, 4 << 10, 32 << 10}, // the second request fills its class: no room for the trailer, so it moves
		{96 << 10, 96 << 10, 160 << 10},
		{40 << 10, 4 << 10, 192 << 10},
	}
	for _, tc := range cases {
		ino := src.Next()
		buf := make([]byte, tc.req)
		wrote := allocated(func() {
			for off := 0; off < tc.size; off += tc.req {
				if err := c.Write(ino, buf, int64(off)); err != nil {
					t.Fatal(err)
				}
			}
		})
		flushed := allocated(func() {
			if err := c.Flush(ino); err != nil {
				t.Fatal(err)
			}
		})
		if wrote < uint64(tc.size) || wrote+flushed > tc.most {
			t.Errorf("%d bytes in %d-byte requests: writing allocated %d bytes and flushing %d, want %d..%d in all",
				tc.size, tc.req, wrote, flushed, tc.size, tc.most)
		}
		if flushed >= uint64(tc.size) || c.Dirty(ino) {
			t.Errorf("%d bytes: the write-back allocated %d bytes: a frame, so the trailer was not sealed in place", tc.size, flushed)
		}
		t.Logf("%d bytes in %d-byte requests: writing allocated %d bytes, flushing %d", tc.size, tc.req, wrote, flushed)
	}
}

// A one-entry Flush PUTs on its caller; when the PUT fails it leaves what the
// parallel path leaves: the entry dirty and resident, the store's error
// wrapped, and the next Flush stores the bytes.
func TestOneEntryFlushFailureKeepsEntryDirty(t *testing.T) {
	c, _, fs, _ := faultCacheSetup(t, 64<<10, 100)
	ino := types.NewInoSource(15).Next()
	data := chunkPattern(3, 3901)
	if err := c.Write(ino, data, 0); err != nil {
		t.Fatal(err)
	}
	fs.FailNext("d:", 1)
	err := c.Flush(ino)
	if err == nil || !errors.Is(err, types.ErrIO) || !strings.Contains(err.Error(), "cache: flush") {
		t.Fatalf("Flush over a failing PUT = %v, want the store's error wrapped", err)
	}
	if !c.Dirty(ino) || c.Len() != 1 {
		t.Fatalf("after the failed Flush: dirty = %v, %d entries resident", c.Dirty(ino), c.Len())
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	if got := storedChunk(t, fs, ino, 0); !bytes.Equal(got, data) || c.Dirty(ino) {
		t.Fatalf("the retried Flush stored %d bytes, dirty = %v", len(got), c.Dirty(ino))
	}
}

// BenchmarkSmallFile is the cache's share of one mdtest-hard file: 3,901
// bytes written, flushed and invalidated on a fresh inode, at the production
// chunk size.
func BenchmarkSmallFile(b *testing.B) {
	const chunk = 2 << 20
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := New(env, prt.New(nullStore{}, chunk), Config{EntrySize: chunk})
	src := types.NewInoSource(16)
	buf := make([]byte, 3901)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ino := src.Next()
		if err := c.Write(ino, buf, 0); err != nil {
			b.Fatal(err)
		}
		if err := c.Flush(ino); err != nil {
			b.Fatal(err)
		}
		c.Invalidate(ino)
	}
}

func BenchmarkWriteSeq128K(b *testing.B) {
	const chunk, req = 2 << 20, 128 << 10
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := New(env, prt.New(objstore.NewMemStore(), chunk), Config{EntrySize: chunk, MaxEntries: 16})
	ino := types.NewInoSource(12).Next()
	buf := make([]byte, req)
	b.SetBytes(req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Wrap at 256 MiB so the store stays bounded: every chunk is still
		// evicted (16 entries) before it is written again.
		if err := c.Write(ino, buf, int64(i%2048)*req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlush(b *testing.B) {
	const chunk, chunks = 2 << 20, 16
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := New(env, prt.New(objstore.NewMemStore(), chunk), Config{EntrySize: chunk, MaxEntries: chunks})
	ino := types.NewInoSource(13).Next()
	buf := make([]byte, chunk)
	b.SetBytes(chunk * chunks)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for idx := int64(0); idx < chunks; idx++ {
			if err := c.Write(ino, buf, idx*chunk); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := c.Flush(ino); err != nil {
			b.Fatal(err)
		}
	}
}

// Reads and Writes of one chunk at once: a Write grows the entry in place,
// moves it to a new buffer, or moves it off the buffer a Flush handed over,
// while Reads copy out of it. Under -race this fails if a Read looks at
// e.data without c.mu (a torn slice header pairs a new length with the old
// buffer). Every Read sees a prefix of what was written: 0xA5 up to some
// length and zeros beyond it.
func TestConcurrentReadWriteOneChunk(t *testing.T) {
	const chunk = 64 << 10
	c, _, _ := cacheSetup(t, chunk, 4, 0)
	ino := types.NewInoSource(16).Next()
	req := bytes.Repeat([]byte{0xA5}, 1000)
	done := make(chan error, 2)
	go func() {
		for off := int64(0); off+int64(len(req)) <= chunk; off += int64(len(req)) {
			if err := c.Write(ino, req, off); err != nil {
				done <- err
				return
			}
			if off%(8*int64(len(req))) == 0 {
				if err := c.Flush(ino); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	go func() {
		buf := make([]byte, chunk)
		for i := 0; i < 200; i++ {
			if _, err := c.Read(ino, buf, 0, chunk); err != nil {
				done <- err
				return
			}
			end := bytes.IndexByte(buf, 0)
			if end < 0 {
				end = len(buf)
			}
			if bytes.Count(buf[:end], []byte{0xA5}) != end || bytes.Count(buf[end:], []byte{0}) != chunk-end {
				done <- fmt.Errorf("read %d: not the written bytes up to %d and zeros after", i, end)
				return
			}
		}
		done <- nil
	}()
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// A write-back hands a full chunk's buffer to the store, which keeps it: the
// next Write to the chunk moves the entry to a new buffer and leaves the
// stored frame as it was put.
func TestWriteAfterWritebackMovesOffTheStoredBuffer(t *testing.T) {
	const chunk = 64
	c, tr, _ := cacheSetup(t, chunk, 100, 0)
	ino := types.NewInoSource(17).Next()
	first := bytes.Repeat([]byte{0x11}, chunk)
	if err := c.Write(ino, first, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	kept, err := tr.Store().Get(prt.DataKey(ino, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(ino, []byte{0x22}, 5); err != nil {
		t.Fatal(err)
	}
	if got, err := wire.Unseal(kept); err != nil || !bytes.Equal(got, first) {
		t.Fatalf("the stored frame after a Write to its chunk: %x, %v", got, err)
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), first...)
	want[5] = 0x22
	if got := storedChunk(t, tr.Store(), ino, 0); !bytes.Equal(got, want) {
		t.Fatalf("second write-back stored %x, want %x", got, want)
	}
}
