package prt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"arkfs/internal/objstore"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

func newT(t *testing.T, chunk int64) (*Translator, *objstore.MemStore) {
	t.Helper()
	s := objstore.NewMemStore()
	return New(s, chunk), s
}

func TestKeyScheme(t *testing.T) {
	ino := types.RootIno
	if got := InodeKey(ino); got != "i:"+ino.String() {
		t.Errorf("InodeKey = %q", got)
	}
	if got := DentryKey(ino); got != "e:"+ino.String() {
		t.Errorf("DentryKey = %q", got)
	}
	jk := JournalKey(ino, 0xab)
	if jk != "j:"+ino.String()+":00000000000000ab" {
		t.Errorf("JournalKey = %q", jk)
	}
	seq, err := ParseJournalSeq(jk)
	if err != nil || seq != 0xab {
		t.Errorf("ParseJournalSeq = %d, %v", seq, err)
	}
	if got := DataKey(ino, 7); got != "d:"+ino.String()+":7" {
		t.Errorf("DataKey = %q", got)
	}
}

func TestKeysMatchFmtForm(t *testing.T) {
	// The keys are built without fmt; they must be the bytes the fmt form
	// wrote, for every inode, index and sequence number at the edges.
	var ones types.Ino
	for i := range ones {
		ones[i] = 0xff
	}
	inos := []types.Ino{{}, types.RootIno, ones, types.NewInoSource(7).Next()}
	for _, ino := range inos {
		if got, want := InodeKey(ino), fmt.Sprintf("i:%s", ino); got != want {
			t.Errorf("InodeKey = %q, want %q", got, want)
		}
		if got, want := DentryKey(ino), fmt.Sprintf("e:%s", ino); got != want {
			t.Errorf("DentryKey = %q, want %q", got, want)
		}
		for _, idx := range []int64{0, 1, 9, 10, math.MaxInt64, -1, math.MinInt64} {
			if got, want := DataKey(ino, idx), fmt.Sprintf("d:%s:%d", ino, idx); got != want {
				t.Errorf("DataKey(%d) = %q, want %q", idx, got, want)
			}
		}
		for _, seq := range []uint64{0, 1, 0xab, 1 << 63, ^uint64(0)} {
			if got, want := JournalKey(ino, seq), fmt.Sprintf("j:%s:%016x", ino, seq); got != want {
				t.Errorf("JournalKey(%d) = %q, want %q", seq, got, want)
			}
		}
	}
	ino := inos[3]
	for name, fn := range map[string]func(){
		"InodeKey":   func() { _ = InodeKey(ino) },
		"DentryKey":  func() { _ = DentryKey(ino) },
		"DataKey":    func() { _ = DataKey(ino, math.MaxInt64) },
		"JournalKey": func() { _ = JournalKey(ino, ^uint64(0)) },
	} {
		if n := testing.AllocsPerRun(100, fn); n > 1 {
			t.Errorf("%s makes %v allocations, want 1 (its string)", name, n)
		}
	}
}

func TestJournalKeysSortBySeq(t *testing.T) {
	ino := types.NewInoSource(1).Next()
	prev := ""
	for seq := uint64(0); seq < 1000; seq += 37 {
		k := JournalKey(ino, seq)
		if k <= prev {
			t.Fatalf("journal keys not monotonic: %q after %q", k, prev)
		}
		prev = k
	}
}

func TestInodeAndDentryPersistence(t *testing.T) {
	tr, _ := newT(t, 0)
	src := types.NewInoSource(2)
	n := &types.Inode{Ino: src.Next(), Type: types.TypeRegular, Mode: 0644, Size: 123}
	if err := tr.SaveInode(n); err != nil {
		t.Fatal(err)
	}
	got, err := tr.LoadInode(n.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 123 || got.Mode != 0644 {
		t.Fatalf("inode mismatch: %+v", got)
	}
	dir := src.Next()
	ents := []wire.Dentry{{Name: "x", Ino: n.Ino, Type: types.TypeRegular}}
	if err := tr.SaveDentries(dir, ents); err != nil {
		t.Fatal(err)
	}
	back, err := tr.LoadDentries(dir)
	if err != nil || len(back) != 1 || back[0].Name != "x" {
		t.Fatalf("dentries mismatch: %v %v", back, err)
	}
	// Missing dentry block = empty directory.
	empty, err := tr.LoadDentries(src.Next())
	if err != nil || len(empty) != 0 {
		t.Fatalf("missing block: %v %v", empty, err)
	}
}

func TestWriteReadAcrossChunks(t *testing.T) {
	tr, _ := newT(t, 16)
	ino := types.NewInoSource(3).Next()
	data := make([]byte, 100)
	for i := range data {
		data[i] = byte(i)
	}
	if err := tr.WriteAt(ino, data, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	n, err := tr.ReadAt(ino, buf, 0, 100)
	if err != nil || n != 100 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("data mismatch after chunked round trip")
	}
	// Unaligned overlapping rewrite.
	patch := []byte("PATCH")
	if err := tr.WriteAt(ino, patch, 14); err != nil { // straddles chunk 0/1
		t.Fatal(err)
	}
	n, err = tr.ReadAt(ino, buf, 10, 100)
	if err != nil || n != 90 {
		t.Fatalf("ReadAt after patch = %d, %v", n, err)
	}
	want := append(append(append([]byte{}, data[10:14]...), patch...), data[19:]...)
	if !bytes.Equal(buf[:n], want) {
		t.Fatalf("patched read mismatch:\n got %v\nwant %v", buf[:20], want[:20])
	}
}

func TestReadClipsToSizeAndHolesAreZero(t *testing.T) {
	tr, _ := newT(t, 16)
	ino := types.NewInoSource(4).Next()
	// Write only chunk 2 (offset 32..48); chunks 0,1 are holes.
	if err := tr.WriteAt(ino, bytes.Repeat([]byte{0xAA}, 16), 32); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	n, err := tr.ReadAt(ino, buf, 0, 48)
	if err != nil || n != 48 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	for i := 0; i < 32; i++ {
		if buf[i] != 0 {
			t.Fatalf("hole byte %d = %x", i, buf[i])
		}
	}
	for i := 32; i < 48; i++ {
		if buf[i] != 0xAA {
			t.Fatalf("data byte %d = %x", i, buf[i])
		}
	}
	// Read past EOF returns 0.
	if n, err := tr.ReadAt(ino, buf, 48, 48); err != nil || n != 0 {
		t.Fatalf("read at EOF = %d, %v", n, err)
	}
	// Short tail chunk inside file size reads zeros beyond stored bytes.
	ino2 := types.NewInoSource(5).Next()
	if err := tr.WriteAt(ino2, []byte{1, 2, 3}, 0); err != nil {
		t.Fatal(err)
	}
	n, err = tr.ReadAt(ino2, buf[:8], 0, 8)
	if err != nil || n != 8 {
		t.Fatalf("short-chunk read = %d, %v", n, err)
	}
	if !bytes.Equal(buf[:8], []byte{1, 2, 3, 0, 0, 0, 0, 0}) {
		t.Fatalf("short-chunk read = %v", buf[:8])
	}
}

func TestTruncateDeletesAndTrims(t *testing.T) {
	tr, store := newT(t, 16)
	ino := types.NewInoSource(6).Next()
	if err := tr.WriteAt(ino, bytes.Repeat([]byte{7}, 64), 0); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 4 {
		t.Fatalf("expected 4 chunks, have %d objects", store.Len())
	}
	if err := tr.Truncate(ino, 64, 20); err != nil {
		t.Fatal(err)
	}
	keys, _ := store.List(PrefixData)
	if len(keys) != 2 {
		t.Fatalf("after truncate to 20: %d chunks, want 2 (%v)", len(keys), keys)
	}
	tail, err := tr.GetChunk(ino, 1)
	if err != nil || len(tail) != 4 {
		t.Fatalf("straddling chunk len = %d, want 4 (%v)", len(tail), err)
	}
	// Growing is a no-op.
	if err := tr.Truncate(ino, 20, 1000); err != nil {
		t.Fatal(err)
	}
	if keys, _ := store.List(PrefixData); len(keys) != 2 {
		t.Fatal("grow-truncate changed chunks")
	}
	// Truncate to zero removes everything.
	if err := tr.Truncate(ino, 20, 0); err != nil {
		t.Fatal(err)
	}
	if keys, _ := store.List(PrefixData); len(keys) != 0 {
		t.Fatalf("truncate(0) left %v", keys)
	}
}

func TestDeleteData(t *testing.T) {
	tr, store := newT(t, 16)
	ino := types.NewInoSource(7).Next()
	if err := tr.WriteAt(ino, make([]byte, 50), 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.DeleteData(ino, 50); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 {
		t.Fatalf("DeleteData left %d objects", store.Len())
	}
}

// Property: random writes through the translator match an in-memory model
// file for any chunk size.
func TestWriteReadMatchesModelQuick(t *testing.T) {
	type wr struct {
		Off  uint16
		Data []byte
	}
	f := func(chunkSel uint8, writes []wr) bool {
		chunk := int64(8 + int(chunkSel%64))
		tr, _ := newT(t, chunk)
		ino := types.NewInoSource(int64(chunkSel)).Next()
		model := make([]byte, 0)
		size := int64(0)
		for _, w := range writes {
			off := int64(w.Off % 4096)
			if len(w.Data) > 512 {
				w.Data = w.Data[:512]
			}
			if err := tr.WriteAt(ino, w.Data, off); err != nil {
				return false
			}
			end := off + int64(len(w.Data))
			if end > int64(len(model)) {
				model = append(model, make([]byte, end-int64(len(model)))...)
			}
			copy(model[off:], w.Data)
			if end > size {
				size = end
			}
		}
		got := make([]byte, size)
		n, err := tr.ReadAt(ino, got, 0, size)
		if err != nil || int64(n) != size {
			return false
		}
		return bytes.Equal(got, model[:size])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Fatal(err)
	}
}

// spyStore records the frame of the last Put without copying it.
type spyStore struct {
	objstore.Store
	frame []byte
}

func (s *spyStore) Put(key string, data []byte) error {
	s.frame = data
	return s.Store.Put(key, data)
}

// PutChunkOwned seals into the caller's spare capacity: the frame handed to
// the store is the caller's buffer, and only the trailer bytes changed.
func TestPutChunkOwnedSealsInPlace(t *testing.T) {
	spy := &spyStore{Store: objstore.NewMemStore()}
	tr := New(spy, 64)
	ino := types.NewInoSource(30).Next()
	buf := bytes.Repeat([]byte{0xEE}, 48)
	for i := 0; i < 20; i++ {
		buf[i] = byte(i)
	}
	payload := buf[: 20 : 20+wire.TrailerSize]
	if err := tr.PutChunkOwned(ino, 0, payload); err != nil {
		t.Fatal(err)
	}
	if &spy.frame[0] != &buf[0] || len(spy.frame) != 24 {
		t.Fatal("frame is not the caller's buffer plus trailer")
	}
	if got, err := wire.Unseal(buf[:24]); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("in-place frame: %x, %v", got, err)
	}
	for i, b := range buf {
		if (i < 20 && b != byte(i)) || (i >= 24 && b != 0xEE) {
			t.Fatalf("byte %d = %#x: written outside the 4 spare bytes", i, b)
		}
	}
	if got, err := tr.GetChunk(ino, 0); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("GetChunk = %x, %v", got, err)
	}
	// Without spare capacity it falls back to a fresh frame.
	if err := tr.PutChunkOwned(ino, 1, buf[:20:20]); err != nil || &spy.frame[0] == &buf[0] {
		t.Fatalf("no spare capacity: err %v, frame aliases the payload: %v", err, &spy.frame[0] == &buf[0])
	}
}

// PutChunk's contract is the opposite: a payload that is a sub-slice of a
// larger buffer keeps the bytes after it.
func TestPutChunkLeavesBytesAfterPayload(t *testing.T) {
	tr, _ := newT(t, 64)
	ino := types.NewInoSource(31).Next()
	buf := bytes.Repeat([]byte{0xEE}, 48)
	if err := tr.PutChunk(ino, 0, buf[:20]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0xEE}, 48)) {
		t.Fatalf("PutChunk wrote into the caller's buffer: %x", buf)
	}
	if got, err := tr.GetChunk(ino, 0); err != nil || !bytes.Equal(got, buf[:20]) {
		t.Fatalf("GetChunk = %x, %v", got, err)
	}
}

func benchmarkPut(b *testing.B, put func(*Translator, types.Ino, int64, []byte) error) {
	const chunk = 2 << 20
	tr := New(objstore.NewMemStore(), chunk)
	ino := types.NewInoSource(32).Next()
	payload := make([]byte, chunk, chunk+wire.TrailerSize)
	b.SetBytes(chunk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := put(tr, ino, int64(i%16), payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutChunk(b *testing.B)      { benchmarkPut(b, (*Translator).PutChunk) }
func BenchmarkPutChunkOwned(b *testing.B) { benchmarkPut(b, (*Translator).PutChunkOwned) }
