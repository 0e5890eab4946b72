package fsck

import (
	"strings"
	"testing"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// flipBit corrupts one byte of a stored object in place.
func flipBit(t *testing.T, store *objstore.MemStore, key string) {
	t.Helper()
	raw, err := store.Get(key)
	if err != nil {
		t.Fatalf("flip %s: %v", key, err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := store.Put(key, raw); err != nil {
		t.Fatal(err)
	}
}

// findRegular returns the inode of the image's one regular file.
func findRegular(t *testing.T, store *objstore.MemStore, tr *prt.Translator) *types.Inode {
	t.Helper()
	keys, _ := store.List(prt.PrefixInode)
	for _, k := range keys {
		ino, err := types.ParseIno(strings.TrimPrefix(k, prt.PrefixInode))
		if err != nil {
			t.Fatal(err)
		}
		n, err := tr.LoadInode(ino)
		if err != nil {
			continue
		}
		if n.Type == types.TypeRegular {
			return n
		}
	}
	t.Fatal("no regular file in image")
	return nil
}

func actions(rep *ScrubReport) map[string]int {
	m := map[string]int{}
	for _, a := range rep.Actions {
		m[a.Op]++
	}
	return m
}

func TestCheckDetectsCorruptChunk(t *testing.T) {
	store, tr := buildImage(t)
	file := findRegular(t, store, tr)
	flipBit(t, store, prt.DataKey(file.Ino, 1))
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if kinds(rep)["corrupt-chunk"] != 1 {
		t.Fatalf("corrupt chunk not flagged: %v", rep.Problems)
	}
}

func TestScrubQuarantinesCorruptChunk(t *testing.T) {
	store, tr := buildImage(t)
	file := findRegular(t, store, tr)
	key := prt.DataKey(file.Ino, 1)
	flipBit(t, store, key)
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if actions(rep)["quarantine"] != 1 {
		t.Fatalf("actions: %v", rep.Actions)
	}
	if _, err := store.Get(key); err == nil {
		t.Fatal("corrupt chunk still live after repair")
	}
	if _, err := store.Get(QuarantinePrefix + key); err != nil {
		t.Fatalf("quarantined copy missing: %v", err)
	}
	if !rep.Post.Clean() {
		t.Fatalf("post-repair check not clean: %v", rep.Post.Problems)
	}
	if rep.Post.Quarantined != 1 {
		t.Fatalf("post-repair quarantined count = %d, want 1", rep.Post.Quarantined)
	}
}

func TestScrubDryRunLeavesStoreUntouched(t *testing.T) {
	store, tr := buildImage(t)
	file := findRegular(t, store, tr)
	key := prt.DataKey(file.Ino, 1)
	flipBit(t, store, key)
	rep, err := Scrub(store, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Planned || rep.Post != nil {
		t.Fatalf("dry run: planned=%v post=%v", rep.Planned, rep.Post)
	}
	if actions(rep)["quarantine"] == 0 {
		t.Fatalf("dry run planned nothing: %v", rep.Actions)
	}
	if _, err := store.Get(key); err != nil {
		t.Fatalf("dry run modified the store: %v", err)
	}
	if _, err := store.Get(QuarantinePrefix + key); err == nil {
		t.Fatal("dry run wrote a quarantine copy")
	}
}

func TestScrubRestoresInodeFromJournalCopy(t *testing.T) {
	store, tr := buildImage(t)
	file := findRegular(t, store, tr)
	// A pending committed record carries a copy of the inode; the object
	// itself is then corrupted.
	txn := &wire.Txn{ID: 9, Dir: types.RootIno, Kind: wire.TxnNormal, Ops: []wire.Op{
		{Kind: wire.OpSetInode, Inode: file},
	}}
	if err := store.Put(prt.JournalKey(types.RootIno, 11), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	flipBit(t, store, prt.InodeKey(file.Ino))
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if actions(rep)["restore-inode"] != 1 {
		t.Fatalf("actions: %v", rep.Actions)
	}
	got, err := tr.LoadInode(file.Ino)
	if err != nil {
		t.Fatalf("restored inode unreadable: %v", err)
	}
	if got.Size != file.Size || got.Type != file.Type {
		t.Fatalf("restored inode mismatch: got %+v want %+v", got, file)
	}
	if !rep.Post.Clean() {
		t.Fatalf("post-repair check not clean: %v", rep.Post.Problems)
	}
}

func TestScrubQuarantinesInodeWithoutCopy(t *testing.T) {
	store, tr := buildImage(t)
	file := findRegular(t, store, tr)
	key := prt.InodeKey(file.Ino)
	flipBit(t, store, key)
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(QuarantinePrefix + key); err != nil {
		t.Fatalf("corrupt inode not quarantined: %v (actions %v)", err, rep.Actions)
	}
	// The dentry now dangles; that is reported, not hidden.
	if kinds(rep.Post)["dangling-dentry"] == 0 {
		t.Fatalf("post-repair check hides the dangling dentry: %v", rep.Post.Problems)
	}
}

func TestScrubRebuildsDentriesFromJournal(t *testing.T) {
	store, tr := buildImage(t)
	file := findRegular(t, store, tr)
	// Locate /docs (the directory holding the file).
	var docs types.Ino
	keys, _ := store.List(prt.PrefixDentry)
	for _, k := range keys {
		dir, err := types.ParseIno(strings.TrimPrefix(k, prt.PrefixDentry))
		if err != nil {
			t.Fatal(err)
		}
		des, err := tr.LoadDentries(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if de.Ino == file.Ino {
				docs = dir
			}
		}
	}
	if docs.IsNil() {
		t.Fatal("file's parent directory not found")
	}
	// A committed journal record re-establishing the entry, then rot the
	// checkpointed block.
	txn := &wire.Txn{ID: 5, Dir: docs, Kind: wire.TxnNormal, Ops: []wire.Op{
		{Kind: wire.OpAddDentry, Name: "a.txt", Ino: file.Ino, FType: file.Type},
	}}
	if err := store.Put(prt.JournalKey(docs, 21), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	flipBit(t, store, prt.DentryKey(docs))
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if actions(rep)["rebuild-dentries"] != 1 {
		t.Fatalf("actions: %v", rep.Actions)
	}
	des, err := tr.LoadDentries(docs)
	if err != nil {
		t.Fatalf("rebuilt dentry block unreadable: %v", err)
	}
	if len(des) != 1 || des[0].Name != "a.txt" || des[0].Ino != file.Ino {
		t.Fatalf("rebuilt dentries = %v", des)
	}
	if !rep.Post.Clean() {
		t.Fatalf("post-repair check not clean: %v", rep.Post.Problems)
	}
}

// Checkpoints delete the journal records they apply, so a dentry block
// rebuilt from the journal of a flushed directory is empty, and every child
// it named is unreachable. Those children are what the lost block held, not
// garbage: the scrub moves them under quarantine and deletes none of them.
func TestScrubQuarantinesWhatARebuildCouldNotPlace(t *testing.T) {
	store, _ := buildImage(t)
	var live []string
	for _, prefix := range []string{prt.PrefixInode, prt.PrefixDentry, prt.PrefixData} {
		keys, err := store.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys {
			if k != prt.InodeKey(types.RootIno) && k != prt.DentryKey(types.RootIno) {
				live = append(live, k)
			}
		}
	}
	if len(live) < 5 { // /docs (i:, e:), a.txt (i:, 3 d:), /link (i:)
		t.Fatalf("setup: the image holds %v below the root", live)
	}
	flipBit(t, store, prt.DentryKey(types.RootIno))
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if a := actions(rep); a["rebuild-dentries"] != 1 || a["gc"] != 0 {
		t.Fatalf("actions: %v", rep.Actions)
	}
	for _, k := range live {
		if _, err := store.Get(QuarantinePrefix + k); err != nil {
			t.Errorf("%s is not under quarantine: %v", k, err)
		}
	}
	if !rep.Post.Clean() {
		t.Fatalf("post-repair check not clean: %v", rep.Post.Problems)
	}
}

func TestScrubTruncatesJournalAtFirstCorruptRecord(t *testing.T) {
	store, _ := buildImage(t)
	dir := types.RootIno
	mk := func(id uint64) []byte {
		return wire.EncodeTxn(&wire.Txn{ID: id, Dir: dir, Kind: wire.TxnNormal, Ops: []wire.Op{
			{Kind: wire.OpDelDentry, Name: "ghost"},
		}})
	}
	if err := store.Put(prt.JournalKey(dir, 1), mk(1)); err != nil {
		t.Fatal(err)
	}
	bad := mk(2)
	bad[len(bad)/2] ^= 0x01
	if err := store.Put(prt.JournalKey(dir, 2), bad); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(prt.JournalKey(dir, 3), mk(3)); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	a := actions(rep)
	if a["quarantine"] != 1 || a["truncate-journal"] != 1 {
		t.Fatalf("actions: %v", rep.Actions)
	}
	if _, err := store.Get(prt.JournalKey(dir, 1)); err != nil {
		t.Fatalf("record before the cut was lost: %v", err)
	}
	for _, seq := range []uint64{2, 3} {
		if _, err := store.Get(prt.JournalKey(dir, seq)); err == nil {
			t.Fatalf("record %d survived the truncation rule", seq)
		}
	}
	if _, err := store.Get(QuarantinePrefix + prt.JournalKey(dir, 2)); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
	// Record 1 is still valid and pending, so orphan GC must be withheld.
	if !rep.GCSkipped {
		t.Fatal("orphan GC ran despite pending journal records")
	}
}

func TestScrubWithholdsGCWhilePendingRecordsExist(t *testing.T) {
	store, _ := buildImage(t)
	ghost := types.NewInoSource(96).Next()
	ghostKey := prt.InodeKey(ghost)
	if err := store.Put(ghostKey, wire.EncodeInode(&types.Inode{
		Ino: ghost, Type: types.TypeRegular, Nlink: 1,
	})); err != nil {
		t.Fatal(err)
	}
	txn := &wire.Txn{ID: 4, Dir: types.RootIno, Kind: wire.TxnNormal, Ops: []wire.Op{
		{Kind: wire.OpDelDentry, Name: "ghost"},
	}}
	if err := store.Put(prt.JournalKey(types.RootIno, 2), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.GCSkipped {
		t.Fatal("GC not withheld with a valid pending record")
	}
	if _, err := store.Get(ghostKey); err != nil {
		t.Fatalf("orphan collected despite pending records: %v", err)
	}

	// Once the journal drains, the same scrub collects the orphan.
	if err := store.Delete(prt.JournalKey(types.RootIno, 2)); err != nil {
		t.Fatal(err)
	}
	rep, err = Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GCSkipped {
		t.Fatal("GC withheld with an empty journal")
	}
	if _, err := store.Get(ghostKey); err == nil {
		t.Fatal("orphan inode survived GC")
	}
	if !rep.Post.Clean() {
		t.Fatalf("post-repair check not clean: %v", rep.Post.Problems)
	}
}

func TestScrubRewritesCorruptSuperblock(t *testing.T) {
	store, _ := buildImage(t)
	flipBit(t, store, prt.SuperblockKey)
	rep, err := Scrub(store, true)
	if err != nil {
		t.Fatal(err)
	}
	if actions(rep)["rewrite-superblock"] != 1 {
		t.Fatalf("actions: %v", rep.Actions)
	}
	raw, err := store.Get(prt.SuperblockKey)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := prt.DecodeSuperblock(raw)
	if err != nil {
		t.Fatalf("rewritten superblock unreadable: %v", err)
	}
	if sb.ChunkSize != prt.DefaultChunkSize {
		t.Fatalf("chunk size = %d, want default %d", sb.ChunkSize, prt.DefaultChunkSize)
	}
}
