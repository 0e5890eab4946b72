package fsck

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"arkfs/internal/core"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// buildImage creates a small, cleanly flushed file system and returns its
// store.
func buildImage(t *testing.T) (*objstore.MemStore, *prt.Translator) {
	t.Helper()
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	store := objstore.NewMemStore()
	tr := prt.New(store, 4096)
	if err := core.Format(tr); err != nil {
		t.Fatal(err)
	}
	net := rpc.NewNetwork(env, sim.NetModel{})
	mgr := lease.NewManager(net, lease.Options{Period: time.Second})
	t.Cleanup(mgr.Close)
	c := core.New(net, tr, core.Options{
		ID: "img", Cred: types.Cred{Uid: 1, Gid: 1},
		Journal: journal.Config{CommitInterval: 10 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2},
	})
	if err := c.Mkdir(context.Background(), "/docs", 0755); err != nil {
		t.Fatal(err)
	}
	f, err := c.Create(context.Background(), "/docs/a.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 10000)); err != nil { // 3 chunks
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink(context.Background(), "/docs/a.txt", "/link"); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return store, tr
}

func kinds(rep *Report) map[string]int {
	m := map[string]int{}
	for _, p := range rep.Problems {
		m[p.Kind]++
	}
	return m
}

func TestCleanImagePasses(t *testing.T) {
	store, _ := buildImage(t)
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("clean image reported problems: %v", rep.Problems)
	}
	if rep.Dirs != 2 || rep.Files != 1 || rep.Symlinks != 1 || rep.Chunks != 3 {
		t.Fatalf("counts: %+v", rep)
	}
	if rep.PendingJournalRecords != 0 {
		t.Fatalf("pending journal records on clean image: %d", rep.PendingJournalRecords)
	}
}

func TestDetectsDanglingDentry(t *testing.T) {
	store, tr := buildImage(t)
	// Remove the file's inode object, leaving its dentry behind.
	keys, _ := store.List(prt.PrefixInode)
	for _, k := range keys {
		ino, err := types.ParseIno(strings.TrimPrefix(k, prt.PrefixInode))
		if err != nil {
			t.Fatal(err)
		}
		n, err := tr.LoadInode(ino)
		if err != nil {
			t.Fatal(err)
		}
		if n.Type == types.TypeRegular {
			_ = store.Delete(k)
		}
	}
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if kinds(rep)["dangling-dentry"] == 0 {
		t.Fatalf("missed dangling dentry: %v", rep.Problems)
	}
}

func TestDetectsOrphans(t *testing.T) {
	store, _ := buildImage(t)
	// An inode object nobody references, with a chunk: both are orphans, but
	// the chunk is recoverable alongside its inode (orphan-chunks).
	ghost := &types.Inode{Ino: types.NewInoSource(99).Next(), Type: types.TypeRegular, Nlink: 1, Size: 3}
	if err := store.Put(prt.InodeKey(ghost.Ino), wire.EncodeInode(ghost)); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(prt.DataKey(ghost.Ino, 0), []byte("yyy")); err != nil {
		t.Fatal(err)
	}
	// Data chunks of a file whose inode object is gone entirely: dangling.
	if err := store.Put(prt.DataKey(types.NewInoSource(98).Next(), 0), []byte("zzz")); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	k := kinds(rep)
	if k["orphan-inode"] == 0 || k["orphan-chunks"] == 0 || k["dangling-chunks"] == 0 {
		t.Fatalf("missed orphans: %v", rep.Problems)
	}
}

// Two checks of one image print the same report: the leftovers of every kind
// (orphan and dangling chunks, orphan inodes, orphan dentry blocks) come out in
// key order, not in the order a map happens to yield them.
func TestReportOrderIsStable(t *testing.T) {
	store, _ := buildImage(t)
	for i := int64(0); i < 4; i++ {
		ghost := &types.Inode{Ino: types.NewInoSource(90 + i).Next(), Type: types.TypeDir, Nlink: 2}
		for _, obj := range []struct {
			key string
			raw []byte
		}{
			{prt.InodeKey(ghost.Ino), wire.EncodeInode(ghost)},
			{prt.DataKey(ghost.Ino, 0), []byte("orphan")},
			{prt.DentryKey(ghost.Ino), wire.EncodeDentries(nil)},
			{prt.DataKey(types.NewInoSource(80+i).Next(), 0), []byte("dangling")},
		} {
			if err := store.Put(obj.key, obj.raw); err != nil {
				t.Fatal(err)
			}
		}
	}
	var first string
	for run := 0; run < 8; run++ {
		rep, err := Check(store)
		if err != nil {
			t.Fatal(err)
		}
		k := kinds(rep)
		if k["orphan-inode"] != 4 || k["orphan-chunks"] != 4 || k["dangling-chunks"] != 4 || k["orphan-dentries"] != 4 {
			t.Fatalf("want four of each kind: %v", k)
		}
		got := fmt.Sprint(rep.Problems)
		if run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("check %d reports\n%s\nthe first reported\n%s", run, got, first)
		}
	}
}

func TestDetectsOrphanJournal(t *testing.T) {
	store, _ := buildImage(t)
	// A journal object for a directory whose inode object does not exist: no
	// future leader will replay it (the directory is gone), so it is leaked
	// space rather than pending recovery work.
	gone := types.NewInoSource(97).Next()
	txn := &wire.Txn{ID: 1, Dir: gone, Kind: wire.TxnNormal, Ops: []wire.Op{
		{Kind: wire.OpDelDentry, Name: "ghost"},
	}}
	if err := store.Put(prt.JournalKey(gone, 3), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if kinds(rep)["orphan-journal"] == 0 {
		t.Fatalf("missed orphan journal: %v", rep.Problems)
	}
	if rep.PendingJournalRecords != 0 {
		t.Fatalf("orphan journal records counted as pending: %d", rep.PendingJournalRecords)
	}
}

func TestDetectsChunkBeyondEOF(t *testing.T) {
	store, tr := buildImage(t)
	// Find the regular file and plant a chunk far past its size.
	keys, _ := store.List(prt.PrefixInode)
	for _, k := range keys {
		ino, _ := types.ParseIno(strings.TrimPrefix(k, prt.PrefixInode))
		n, err := tr.LoadInode(ino)
		if err != nil || n.Type != types.TypeRegular {
			continue
		}
		if err := store.Put(prt.DataKey(n.Ino, 99), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if kinds(rep)["chunk-beyond-eof"] == 0 {
		t.Fatalf("missed chunk beyond EOF: %v", rep.Problems)
	}
}

func TestReportsPendingJournal(t *testing.T) {
	store, _ := buildImage(t)
	// A valid journal record = unclean shutdown awaiting recovery.
	dir := types.RootIno
	txn := &wire.Txn{ID: 1, Dir: dir, Kind: wire.TxnNormal, Ops: []wire.Op{
		{Kind: wire.OpDelDentry, Name: "ghost"},
	}}
	if err := store.Put(prt.JournalKey(dir, 7), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	// And a torn one.
	raw := wire.EncodeTxn(txn)
	if err := store.Put(prt.JournalKey(dir, 8), raw[:len(raw)/2]); err != nil {
		t.Fatal(err)
	}
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingJournalRecords != 1 {
		t.Fatalf("pending journal records = %d, want 1", rep.PendingJournalRecords)
	}
	if kinds(rep)["torn-journal"] != 1 {
		t.Fatalf("torn journal not flagged: %v", rep.Problems)
	}
}

func TestDetectsMissingRoot(t *testing.T) {
	store := objstore.NewMemStore()
	rep, err := Check(store)
	if err != nil {
		t.Fatal(err)
	}
	if kinds(rep)["missing-root"] == 0 {
		t.Fatal("missing root not flagged")
	}
}
