package cache

import (
	"bytes"
	"sync"
	"testing"

	"arkfs/internal/objstore"
	"arkfs/internal/objstore/storetest"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// faultCacheSetup builds a cache over a FaultStore-backed translator.
func faultCacheSetup(t *testing.T, chunk int64, maxEntries int) (*Cache, *prt.Translator, *objstore.FaultStore, sim.Env) {
	t.Helper()
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	fs := objstore.NewFaultStore(storetest.Guard(t, objstore.NewMemStore()))
	tr := prt.New(fs, chunk)
	c := New(env, tr, Config{EntrySize: chunk, MaxEntries: maxEntries})
	return c, tr, fs, env
}

// chunkPattern fills one chunk with a distinct per-index byte pattern.
func chunkPattern(idx int, size int64) []byte {
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(idx*31 + i)
	}
	return data
}

// Regression: a transient PUT failure during LRU eviction write-back must not
// lose the chunk. The entry keeps its dirty bit and stays resident, and the
// next Flush lands the bytes (previously the dirty bit was cleared before the
// PUT and the error dropped, silently losing the data).
func TestEvictionWritebackFailurePreservesData(t *testing.T) {
	const chunk = 64
	c, tr, fs, _ := faultCacheSetup(t, chunk, 2)
	ino := types.NewInoSource(1).Next()
	for idx := 0; idx < 2; idx++ {
		if err := c.Write(ino, chunkPattern(idx, chunk), int64(idx)*chunk); err != nil {
			t.Fatal(err)
		}
	}
	// The next write overflows MaxEntries and evicts chunk 0 (LRU), whose
	// write-back PUT fails transiently.
	fs.FailNext("d:", 1)
	if err := c.Write(ino, chunkPattern(2, chunk), 2*chunk); err != nil {
		t.Fatal(err)
	}
	if got := c.Stat().WritebackErrors.Load(); got != 1 {
		t.Fatalf("WritebackErrors = %d, want 1", got)
	}
	if !c.Dirty(ino) {
		t.Fatal("entry lost its dirty bit after a failed eviction write-back")
	}
	// The store must not have the chunk yet; the cache still does.
	if _, err := fs.Get(prt.DataKey(ino, 0)); err == nil {
		t.Fatal("failed PUT should not have landed")
	}
	// The fault was transient: the next Flush retries and persists everything.
	if err := c.Flush(ino); err != nil {
		t.Fatalf("Flush after transient fault: %v", err)
	}
	if c.Dirty(ino) {
		t.Fatal("Dirty after successful flush")
	}
	got := make([]byte, 3*chunk)
	if _, err := tr.ReadAt(ino, got, 0, 3*chunk); err != nil {
		t.Fatal(err)
	}
	for idx := 0; idx < 3; idx++ {
		if !bytes.Equal(got[idx*chunk:(idx+1)*chunk], chunkPattern(idx, chunk)) {
			t.Fatalf("chunk %d lost or corrupted after eviction failure + flush", idx)
		}
	}
}

// Regression: a persistent write-back failure must surface as a Flush error
// instead of being dropped.
func TestEvictionWritebackFailureSurfacesAtFlush(t *testing.T) {
	const chunk = 64
	c, _, fs, _ := faultCacheSetup(t, chunk, 2)
	ino := types.NewInoSource(2).Next()
	for idx := 0; idx < 2; idx++ {
		if err := c.Write(ino, chunkPattern(idx, chunk), int64(idx)*chunk); err != nil {
			t.Fatal(err)
		}
	}
	fs.FailNext("d:", 100) // persistent fault
	if err := c.Write(ino, chunkPattern(2, chunk), 2*chunk); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ino); err == nil {
		t.Fatal("Flush reported success while the store rejected every PUT")
	}
	if !c.Dirty(ino) {
		t.Fatal("dirty bit dropped by a failed Flush")
	}
	// Clear the fault; everything still recovers.
	fs.FailNext("", 0)
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	if c.Dirty(ino) {
		t.Fatal("Dirty after recovery flush")
	}
}

// gateStore parks the first PUT of gateKey between reading the first and
// second half of the value, exposing torn flushes: if the caller aliased the
// cache entry's buffer, a concurrent Write lands in the second half.
type gateStore struct {
	objstore.Store
	gateKey string
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateStore) Put(key string, data []byte) error {
	if key == g.gateKey {
		var gated bool
		g.once.Do(func() { gated = true })
		if gated {
			half := append([]byte(nil), data[:len(data)/2]...)
			close(g.entered)
			<-g.release
			rest := append([]byte(nil), data[len(data)/2:]...)
			return g.Store.Put(key, append(half, rest...))
		}
	}
	return g.Store.Put(key, data)
}

// Regression: Flush must snapshot dirty bytes under the lock. Previously it
// captured e.data by reference and PUT it with the cache unlocked, so a
// concurrent Write to the same chunk produced a half-old half-new object.
func TestFlushSnapshotsAgainstConcurrentWrite(t *testing.T) {
	const chunk = 64
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	ino := types.NewInoSource(3).Next()
	gs := &gateStore{
		Store:   objstore.NewMemStore(),
		gateKey: prt.DataKey(ino, 0),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	tr := prt.New(gs, chunk)
	c := New(env, tr, Config{EntrySize: chunk, MaxEntries: 100})

	old := bytes.Repeat([]byte{0xAA}, chunk)
	if err := c.Write(ino, old, 0); err != nil {
		t.Fatal(err)
	}
	flushDone := make(chan error, 1)
	env.Go(func() { flushDone <- c.Flush(ino) })
	<-gs.entered // the flush PUT is mid-value
	niu := bytes.Repeat([]byte{0xBB}, chunk)
	if err := c.Write(ino, niu, 0); err != nil {
		t.Fatal(err)
	}
	close(gs.release)
	if err := <-flushDone; err != nil {
		t.Fatal(err)
	}
	raw, err := gs.Get(prt.DataKey(ino, 0))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := wire.Unseal(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range stored {
		if b != stored[0] {
			t.Fatalf("torn object: byte %d = %#x, byte 0 = %#x", i, b, stored[0])
		}
	}
	// The concurrent Write must still be flushable: clearing its dirty bit
	// based on the pre-write snapshot would lose the 0xBB version.
	if !c.Dirty(ino) {
		t.Fatal("dirty bit of the concurrent write was cleared by the stale flush")
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	raw, err = gs.Get(prt.DataKey(ino, 0))
	if err != nil {
		t.Fatal(err)
	}
	stored, err = wire.Unseal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, niu) {
		t.Fatal("final flush lost the concurrent write")
	}
}

// Race-detector fodder: hammer Write against Flush and eviction on the same
// chunks. With the aliasing bug, `go test -race` reports a write race between
// the flusher's PUT and Write's copy-in.
func TestConcurrentWriteFlushEvictNoRace(t *testing.T) {
	const chunk = 128
	c, _, _, env := faultCacheSetup(t, chunk, 4)
	ino := types.NewInoSource(4).Next()
	done := make(chan struct{})
	env.Go(func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = c.Flush(ino)
		}
	})
	buf := make([]byte, chunk)
	for i := 0; i < 400; i++ {
		for j := range buf {
			buf[j] = byte(i + j)
		}
		// 8 chunks over a 4-entry cache: steady eviction traffic.
		if err := c.Write(ino, buf, int64(i%8)*chunk); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	if c.Dirty(ino) {
		t.Fatal("Dirty after final flush")
	}
}
