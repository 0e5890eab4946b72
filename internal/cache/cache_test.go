package cache

import (
	"bytes"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/objstore/storetest"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

func cacheSetup(t *testing.T, chunk int64, maxEntries int, ra int64) (*Cache, *prt.Translator, sim.Env) {
	t.Helper()
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	tr := prt.New(storetest.Guard(t, objstore.NewMemStore()), chunk)
	c := New(env, tr, Config{EntrySize: chunk, MaxEntries: maxEntries, MaxReadahead: ra})
	return c, tr, env
}

func TestWriteBackRoundTrip(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 100, 0)
	ino := types.NewInoSource(1).Next()
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Write(ino, data, 0); err != nil {
		t.Fatal(err)
	}
	// Store untouched before flush (write-back).
	if keys, _ := tr.Store().List(prt.PrefixData); len(keys) != 0 {
		t.Fatalf("write-through detected: %v", keys)
	}
	if !c.Dirty(ino) {
		t.Fatal("Dirty = false after write")
	}
	// Read through cache sees the written data.
	buf := make([]byte, 200)
	if n, err := c.Read(ino, buf, 0, 200); err != nil || n != 200 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("cache read mismatch")
	}
	// Flush persists.
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	if c.Dirty(ino) {
		t.Fatal("Dirty after flush")
	}
	got := make([]byte, 200)
	if _, err := tr.ReadAt(ino, got, 0, 200); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("store data mismatch after flush")
	}
}

func TestReadThroughAndHit(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 100, 0)
	ino := types.NewInoSource(2).Next()
	want := bytes.Repeat([]byte{0x5A}, 128)
	if err := tr.WriteAt(ino, want, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if _, err := c.Read(ino, buf, 0, 128); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("read-through mismatch")
	}
	misses := c.Stat().Misses.Load()
	if _, err := c.Read(ino, buf, 0, 128); err != nil {
		t.Fatal(err)
	}
	if c.Stat().Misses.Load() != misses {
		t.Fatal("second read should be all hits")
	}
	if c.Stat().Hits.Load() == 0 {
		t.Fatal("no hits recorded")
	}
}

func TestPartialWritePreservesSurroundingBytes(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 100, 0)
	ino := types.NewInoSource(3).Next()
	base := bytes.Repeat([]byte{1}, 64)
	if err := tr.WriteAt(ino, base, 0); err != nil {
		t.Fatal(err)
	}
	// Partial write into the middle of the chunk via the cache.
	if err := c.Write(ino, []byte{9, 9, 9}, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	if _, err := tr.ReadAt(ino, got, 0, 64); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, base...)
	copy(want[10:], []byte{9, 9, 9})
	if !bytes.Equal(got, want) {
		t.Fatalf("partial write clobbered chunk:\n got %v\nwant %v", got[:16], want[:16])
	}
}

func TestLRUEvictionWritesBackDirty(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 2, 0)
	ino := types.NewInoSource(4).Next()
	// Three chunks through a 2-entry cache.
	for i := int64(0); i < 3; i++ {
		if err := c.Write(ino, bytes.Repeat([]byte{byte(i + 1)}, 64), i*64); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 2 {
		t.Fatalf("cache holds %d entries, cap 2", c.Len())
	}
	if c.Stat().Evictions.Load() == 0 || c.Stat().Writebacks.Load() == 0 {
		t.Fatalf("stats: %+v evictions, %+v writebacks",
			c.Stat().Evictions.Load(), c.Stat().Writebacks.Load())
	}
	// Every chunk must be readable with correct content (evicted ones from
	// the store, resident ones from cache).
	buf := make([]byte, 64)
	for i := int64(0); i < 3; i++ {
		if _, err := c.Read(ino, buf, i*64, 192); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("chunk %d content %d", i, buf[0])
		}
	}
	_ = tr
}

func TestInvalidateDropsWithoutWriteback(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 100, 0)
	ino := types.NewInoSource(5).Next()
	if err := c.Write(ino, []byte("dirty"), 0); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(ino)
	if c.Len() != 0 {
		t.Fatalf("entries after invalidate: %d", c.Len())
	}
	if keys, _ := tr.Store().List(prt.PrefixData); len(keys) != 0 {
		t.Fatal("invalidate wrote data back")
	}
	// Subsequent read misses and sees store state (hole → zeros).
	buf := make([]byte, 5)
	if _, err := c.Read(ino, buf, 0, 5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 5)) {
		t.Fatalf("stale data after invalidate: %v", buf)
	}
}

func TestReadaheadFromOffsetZeroJumpsToMax(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		tr := prt.New(objstore.NewMemStore(), 64)
		c := New(env, tr, Config{EntrySize: 64, MaxEntries: 1000, MaxReadahead: 64 * 8})
		ino := types.NewInoSource(6).Next()
		size := int64(64 * 32)
		if err := tr.WriteAt(ino, bytes.Repeat([]byte{3}, int(size)), 0); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		if _, err := c.Read(ino, buf, 0, size); err != nil {
			t.Error(err)
			return
		}
		if got := c.Window(ino); got != 64*8 {
			t.Errorf("window after offset-0 read = %d, want max", got)
		}
		// Give prefetches a chance to land, then the next sequential reads
		// must be hits.
		env.Sleep(time.Second)
		missesBefore := c.Stat().Misses.Load()
		for off := int64(64); off < 64*8; off += 64 {
			if _, err := c.Read(ino, buf, off, size); err != nil {
				t.Error(err)
				return
			}
		}
		if got := c.Stat().Misses.Load(); got != missesBefore {
			t.Errorf("sequential reads missed %d times despite read-ahead", got-missesBefore)
		}
		if c.Stat().Readaheads.Load() == 0 {
			t.Error("no read-aheads issued")
		}
	})
}

func TestReadaheadWindowGrowsWhenSequential(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		tr := prt.New(objstore.NewMemStore(), 64)
		c := New(env, tr, Config{EntrySize: 64, MaxEntries: 1000, MaxReadahead: 64 * 16})
		ino := types.NewInoSource(7).Next()
		size := int64(64 * 64)
		if err := tr.WriteAt(ino, bytes.Repeat([]byte{4}, int(size)), 0); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		// Start mid-file so the offset-0 shortcut does not apply.
		var last int64
		for off := int64(64 * 4); off < 64*12; off += 64 {
			if _, err := c.Read(ino, buf, off, size); err != nil {
				t.Error(err)
				return
			}
			w := c.Window(ino)
			if w < last {
				t.Errorf("window shrank during sequential reads: %d -> %d", last, w)
			}
			last = w
		}
		if last == 0 {
			t.Error("window never grew")
		}
		// A random jump resets the window.
		if _, err := c.Read(ino, buf, 0, size); err != nil {
			t.Error(err)
			return
		}
		if got := c.Window(ino); got > last && got != 64*16 {
			t.Errorf("window after jump = %d", got)
		}
	})
}

func TestConcurrentReadersSingleFetch(t *testing.T) {
	// Two readers of the same missing chunk: one fetch, the other waits on
	// the in-flight marker.
	env := sim.NewVirtEnv()
	env.Run(func() {
		prof := objstore.TestProfile()
		prof.OpOverhead = 10 * time.Millisecond
		cl := objstore.NewCluster(env, prof)
		defer cl.Close()
		tr := prt.New(cl, 64)
		c := New(env, tr, Config{EntrySize: 64, MaxEntries: 100, MaxReadahead: 0})
		ino := types.NewInoSource(8).Next()
		if err := tr.WriteAt(ino, bytes.Repeat([]byte{9}, 64), 0); err != nil {
			t.Error(err)
			return
		}
		gets := cl.Stat().Gets.Load()
		g := sim.NewGroup(env)
		for i := 0; i < 8; i++ {
			g.Go(func() {
				buf := make([]byte, 64)
				if _, err := c.Read(ino, buf, 0, 64); err != nil {
					t.Error(err)
				}
				if buf[0] != 9 {
					t.Error("bad data")
				}
			})
		}
		g.Wait()
		if got := cl.Stat().Gets.Load() - gets; got != 1 {
			t.Errorf("concurrent readers issued %d GETs, want 1", got)
		}
	})
}

func TestReadBeyondSizeClipped(t *testing.T) {
	c, _, _ := cacheSetup(t, 64, 10, 0)
	ino := types.NewInoSource(9).Next()
	if err := c.Write(ino, []byte("hello"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := c.Read(ino, buf, 0, 5)
	if err != nil || n != 5 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	n, err = c.Read(ino, buf, 5, 5)
	if err != nil || n != 0 {
		t.Fatalf("Read at EOF = %d, %v", n, err)
	}
}
