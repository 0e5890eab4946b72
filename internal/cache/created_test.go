package cache

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// getCounter counts the GETs of data objects.
type getCounter struct {
	objstore.Store
	gets atomic.Int64
}

func (s *getCounter) Get(key string) ([]byte, error) {
	if strings.HasPrefix(key, prt.PrefixData) {
		s.gets.Add(1)
	}
	return s.Store.Get(key)
}

func countedCache(t *testing.T, chunk int64, maxEntries int) (*Cache, *getCounter) {
	t.Helper()
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	store := &getCounter{Store: objstore.NewMemStore()}
	return New(env, prt.New(store, chunk), Config{EntrySize: chunk, MaxEntries: maxEntries}), store
}

// What a created file costs in GETs: nothing while the store cannot hold what
// is asked for, one per chunk that may have been stored, and what any file
// costs once the knowledge is gone.
func TestCreatedFileFetchesNothingTheStoreCannotHold(t *testing.T) {
	t.Run("small file", func(t *testing.T) {
		for _, created := range []bool{false, true} {
			c, store := countedCache(t, 2<<20, 8)
			ino := types.NewInoSource(1).Next()
			if created {
				c.Created(ino)
			}
			if err := c.Write(ino, make([]byte, 3901), 0); err != nil {
				t.Fatal(err)
			}
			if err := c.Flush(ino); err != nil {
				t.Fatal(err)
			}
			want := int64(1) // the fetch that finds nothing
			if created {
				want = 0
			}
			if got := store.gets.Load(); got != want {
				t.Errorf("created=%v: %d GETs for a fresh 3,901-byte file, want %d", created, got, want)
			}
		}
	})

	t.Run("streamed past the cache", func(t *testing.T) {
		const chunk, req, entries = 256 << 10, 128 << 10, 2
		const size = 8 * entries * chunk
		c, store := countedCache(t, chunk, entries)
		ino := types.NewInoSource(2).Next()
		c.Created(ino)
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i>>9) ^ byte(i)
		}
		for off := 0; off < size; off += req {
			if err := c.Write(ino, want[off:off+req], int64(off)); err != nil {
				t.Fatal(err)
			}
		}
		if got := store.gets.Load(); got != 0 || c.Stat().Evictions.Load() == 0 {
			t.Fatalf("%d GETs and %d evictions writing 8x the cache in 128 KiB requests, want none and some",
				got, c.Stat().Evictions.Load())
		}
		// Below the watermark the chunk may be stored, and is: one GET.
		buf := make([]byte, 100)
		if _, err := c.Read(ino, buf, chunk+5, size); err != nil || !bytes.Equal(buf, want[chunk+5:chunk+105]) {
			t.Fatalf("read of an evicted chunk: %v, right bytes %v", err, bytes.Equal(buf, want[chunk+5:chunk+105]))
		}
		if got := store.gets.Load(); got != 1 {
			t.Fatalf("%d GETs reading an evicted chunk, want 1", got)
		}
		// Above everything written nothing is stored: a hole, no GET.
		if err := c.Write(ino, []byte("far"), size+3*chunk+7); err != nil {
			t.Fatal(err)
		}
		if got := store.gets.Load(); got != 1 {
			t.Fatalf("%d GETs after a write above the watermark, want still 1", got)
		}
		if err := c.Flush(ino); err != nil {
			t.Fatal(err)
		}
		// Invalidate forgets: the next access asks the store, found or not.
		c.Invalidate(ino)
		if err := c.Write(ino, []byte("again"), size+8*chunk+1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(ino, buf, 0, size); err != nil || !bytes.Equal(buf, want[:100]) {
			t.Fatalf("read after Invalidate: %v", err)
		}
		if got := store.gets.Load(); got != 3 {
			t.Fatalf("%d GETs after Invalidate, a write to a new chunk and a read, want 3", got)
		}
		c.Clear()
		if err := c.Write(ino, []byte("and again"), size+9*chunk+1); err != nil {
			t.Fatal(err)
		}
		if got := store.gets.Load(); got != 4 {
			t.Fatalf("%d GETs after Clear and a write to a new chunk, want 4", got)
		}
	})
}

// Two goroutines write one created inode, each its own half of every chunk,
// while a third churns the two-entry cache with another file: entries leave
// between a writer's requests, the watermark follows, and no byte is lost to
// a fetch skipped or an entry evicted under a writer. Run under -race.
func TestCreatedFileConcurrentWritersAndEvictions(t *testing.T) {
	const chunk, chunks, piece = 4 << 10, 8, 512
	c, _ := countedCache(t, chunk, 2)
	ino, other := types.NewInoSource(3).Next(), types.NewInoSource(4).Next()
	c.Created(ino)
	want := make([]byte, chunks*chunk)
	for i := range want {
		want[i] = byte(i>>8) ^ byte(i) | 1
	}
	stop := make(chan struct{})
	var churn, writers sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Write(other, []byte{1}, int64(i%16)*chunk); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for half := 0; half < 2; half++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for round := 0; round < 3; round++ { // later rounds rewrite chunks that were evicted
				for idx := 0; idx < chunks; idx++ {
					base := idx*chunk + half*chunk/2
					for off := base; off < base+chunk/2; off += piece {
						if err := c.Write(ino, want[off:off+piece], int64(off)); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	churn.Wait()
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	c.Clear()
	got := make([]byte, len(want))
	if _, err := c.tr.ReadAt(ino, got, 0, int64(len(got))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("the store differs from what was written from byte %d (chunk %d) on", i, i/chunk)
			}
		}
	}
}
