package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// Two cold readers, each with its own cache over one store, read one file
// front to back in fio's shape scaled down eightfold: 96 chunks, 16 requests
// a chunk, a window of 4 chunks and 16 entries. Each fetches every chunk once:
// the first in line, the other 95 through read-ahead reservations. Without
// the reservation every request started a prefetch of each chunk still
// absent, and one that ran after its chunk had come and gone fetched it again.
func TestReadaheadFetchesEachChunkOnce(t *testing.T) {
	const chunk, chunks, req = 256 << 10, 96, 16 << 10
	const size = chunks * chunk
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	store := objstore.NewMemStore()
	ino := types.NewInoSource(20).Next()
	want := make([]byte, size)
	for i := range want {
		want[i] = byte(i>>10) ^ byte(i)
	}
	if err := prt.New(store, chunk).WriteAt(ino, want, 0); err != nil {
		t.Fatal(err)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			counted := &getCounter{Store: store}
			c := New(env, prt.New(counted, chunk), Config{EntrySize: chunk, MaxEntries: 16, MaxReadahead: 4 * chunk})
			buf := make([]byte, req)
			for off := int64(0); off < size; off += req {
				if _, err := c.Read(ino, buf, off, size); err != nil || !bytes.Equal(buf, want[off:off+req]) {
					t.Errorf("reader %d at %d: %v, right bytes %v", r, off, err, bytes.Equal(buf, want[off:off+req]))
					return
				}
			}
			if gets, ra := counted.gets.Load(), c.Stat().Readaheads.Load(); gets != chunks || ra != chunks-1 {
				t.Errorf("reader %d: %d GETs and %d read-aheads for %d chunks, want %d and %d", r, gets, ra, chunks, chunks, chunks-1)
			}
		}()
	}
	readers.Wait()
}

// Read-ahead starts past the chunks the request itself reads: reading a
// one-chunk file is one miss and no prefetch.
func TestReadaheadLeavesTheRequestToTheReader(t *testing.T) {
	c, tr, _ := cacheSetup(t, 64, 16, 4*64)
	ino := types.NewInoSource(21).Next()
	if err := tr.WriteAt(ino, []byte("one chunk"), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if n, err := c.Read(ino, buf, 0, 9); err != nil || string(buf[:n]) != "one chunk" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if ra, misses := c.Stat().Readaheads.Load(), c.Stat().Misses.Load(); ra != 0 || misses != 1 {
		t.Fatalf("%d read-aheads and %d misses reading a one-chunk file, want 0 and 1", ra, misses)
	}
}

// parkStore parks the first GET of key until release is closed, then answers
// it with err, or with what the store held when the GET arrived.
type parkStore struct {
	objstore.Store
	key     string
	err     error
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newParkStore(key string, err error) *parkStore {
	return &parkStore{Store: objstore.NewMemStore(), key: key, err: err,
		entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkStore) Get(key string) ([]byte, error) {
	parked := false
	if key == p.key {
		p.once.Do(func() { parked = true })
	}
	if !parked {
		return p.Store.Get(key)
	}
	data, err := p.Store.Get(key)
	close(p.entered)
	<-p.release
	if p.err != nil {
		return nil, p.err
	}
	return data, err
}

// An Invalidate while a reservation's GET is out drops the reservation: the
// next Read fetches what the store holds now, and the late answer lands in no
// entry anyone can find.
func TestInvalidateDuringReservedFetch(t *testing.T) {
	const chunk = 64
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	ino := types.NewInoSource(22).Next()
	ps := newParkStore(prt.DataKey(ino, 1), nil)
	c := New(env, prt.New(ps, chunk), Config{EntrySize: chunk, MaxEntries: 16, MaxReadahead: 4 * chunk})
	other := prt.New(ps.Store, chunk) // another client's writes: never parked
	if err := other.WriteAt(ino, bytes.Repeat([]byte{1}, 2*chunk), 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, chunk)
	if _, err := c.Read(ino, buf, 0, 2*chunk); err != nil {
		t.Fatal(err)
	}
	<-ps.entered // chunk 1's reservation is fetching the old bytes
	fresh := bytes.Repeat([]byte{2}, chunk)
	if err := other.WriteAt(ino, fresh, chunk); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(ino)
	if _, err := c.Read(ino, buf, chunk, 2*chunk); err != nil || !bytes.Equal(buf, fresh) {
		t.Fatalf("read after Invalidate: %v, byte 0 = %d, want %d", err, buf[0], fresh[0])
	}
	close(ps.release)
	if _, err := c.Read(ino, buf, chunk, 2*chunk); err != nil || !bytes.Equal(buf, fresh) {
		t.Fatalf("read after the late answer: %v, byte 0 = %d, want %d", err, buf[0], fresh[0])
	}
}

// Regression: a failed fetch removes its own entry, never a newer one. A
// read's GET is out when an Invalidate (a recall) drops its entry and a Write
// makes a new, dirty one for the same chunk; the GET then fails. It used to
// delete whatever the tree held at idx, so the dirty entry left the tree but
// not the LRU: Dirty said false, Flush wrote nothing, and the store kept the
// old bytes. Run under -race.
func TestFailedFetchKeepsNewerEntry(t *testing.T) {
	const chunk = 64
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	ino := types.NewInoSource(23).Next()
	ps := newParkStore(prt.DataKey(ino, 0), fmt.Errorf("injected: %w", types.ErrIO))
	c := New(env, prt.New(ps, chunk), Config{EntrySize: chunk, MaxEntries: 16})
	tr := prt.New(ps.Store, chunk)
	if err := tr.WriteAt(ino, []byte("old-bytes"), 0); err != nil {
		t.Fatal(err)
	}
	read := make(chan error, 1)
	go func() {
		_, err := c.Read(ino, make([]byte, 9), 0, 9)
		read <- err
	}()
	<-ps.entered
	c.Invalidate(ino)
	if err := c.Write(ino, []byte("new-bytes"), 0); err != nil {
		t.Fatal(err)
	}
	close(ps.release)
	if err := <-read; !errors.Is(err, types.ErrIO) {
		t.Fatalf("read over the failed GET = %v, want ErrIO", err)
	}
	if !c.Dirty(ino) || c.Len() != 1 {
		t.Fatalf("after the failed fetch: dirty = %v, %d entries resident, want true and 1", c.Dirty(ino), c.Len())
	}
	if err := c.Flush(ino); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 9)
	if _, err := tr.ReadAt(ino, got, 0, 9); err != nil || string(got) != "new-bytes" {
		t.Fatalf("the store holds %q (%v), want %q", got, err, "new-bytes")
	}
}

// BenchmarkReadSeqCold is one cold sequential read of a 64-chunk (128 MiB)
// file in 128 KiB requests through a fresh 16-entry cache with an 8 MiB
// window, at the production chunk size: fio_seq's read phase for one client.
func BenchmarkReadSeqCold(b *testing.B) {
	const chunk, chunks, req = 2 << 20, 64, 128 << 10
	const size = chunks * chunk
	env := sim.NewRealEnv()
	defer env.Shutdown()
	tr := prt.New(objstore.NewMemStore(), chunk)
	ino := types.NewInoSource(24).Next()
	for idx := int64(0); idx < chunks; idx++ {
		if err := tr.PutChunk(ino, idx, chunkPattern(int(idx), chunk)); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, req)
	var readaheads int64
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(env, tr, Config{EntrySize: chunk, MaxEntries: 16, MaxReadahead: 8 << 20})
		for off := int64(0); off < size; off += req {
			if _, err := c.Read(ino, buf, off, size); err != nil {
				b.Fatal(err)
			}
		}
		readaheads += c.Stat().Readaheads.Load()
	}
	b.ReportMetric(float64(readaheads)/float64(b.N), "readaheads/op")
}
