package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"arkfs/internal/types"
)

func TestTwoClientsSharedNamespace(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")

	// c1 builds a tree; c2 must see it through c1's leadership (no flush
	// needed — the leader serves from its metatable).
	if err := c1.Mkdir(context.Background(), "/shared", 0777); err != nil {
		t.Fatal(err)
	}
	f, err := c1.Create(context.Background(), "/shared/from-c1", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("c1 data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := c2.Stat(context.Background(), "/shared/from-c1")
	if err != nil {
		t.Fatalf("c2 stat through c1's leadership: %v", err)
	}
	if st.Size != 7 {
		t.Fatalf("size = %d", st.Size)
	}
	// c2 creates in the same directory: forwarded to c1 (the leader).
	g, err := c2.Create(context.Background(), "/shared/from-c2", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("c2 data")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if c2.StatCounters().RemoteMetaOps.Load() == 0 {
		t.Fatal("c2 performed no remote ops; leadership forwarding broken")
	}
	// Both clients list both files.
	for _, c := range []*Client{c1, c2} {
		ents, err := c.Readdir(context.Background(), "/shared")
		if err != nil || len(ents) != 2 {
			t.Fatalf("%s readdir: %v, %v", c.Addr(), ents, err)
		}
	}
	// c2 reads c1's file content.
	h, err := c2.Open(context.Background(), "/shared/from-c1", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(h)
	_ = h.Close()
	if string(got) != "c1 data" {
		t.Fatalf("cross-client read = %q", got)
	}
}

func TestNonOverlappingDirsStayLocal(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")
	if err := c1.Mkdir(context.Background(), "/d1", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c2.Mkdir(context.Background(), "/d2", 0777); err != nil {
		t.Fatal(err)
	}
	before1 := c1.StatCounters().RemoteMetaOps.Load()
	before2 := c2.StatCounters().RemoteMetaOps.Load()
	for i := 0; i < 20; i++ {
		name1 := "/d1/f" + string(rune('a'+i))
		name2 := "/d2/f" + string(rune('a'+i))
		f1, err := c1.Create(context.Background(), name1, 0644)
		if err != nil {
			t.Fatal(err)
		}
		_ = f1.Close()
		f2, err := c2.Create(context.Background(), name2, 0644)
		if err != nil {
			t.Fatal(err)
		}
		_ = f2.Close()
	}
	// c1 leads /d1 and c2 leads /d2: creates are local. (Root lookups may be
	// remote for whichever client does not lead root.)
	if got := c1.StatCounters().RemoteMetaOps.Load() - before1; got > 25 {
		t.Errorf("c1 remote ops = %d; creates should be local", got)
	}
	if got := c2.StatCounters().RemoteMetaOps.Load() - before2; got > 25 {
		t.Errorf("c2 remote ops = %d; creates should be local", got)
	}
}

func TestLeaseHandoverAfterRelease(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")
	if err := c1.Mkdir(context.Background(), "/dir", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := c1.Create(context.Background(), "/dir/file", 0666)
	_ = f.Close()
	res, err := c1.resolvePath(context.Background(), "/dir", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.ReleaseDir(res.node.Ino); err != nil {
		t.Fatal(err)
	}
	// c2 can now become the leader and operate locally.
	if _, err := c2.Stat(context.Background(), "/dir/file"); err != nil {
		t.Fatal(err)
	}
	g, err := c2.Create(context.Background(), "/dir/file2", 0666)
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	if _, ok := c2.ledDirFor(res.node.Ino); !ok {
		t.Fatal("c2 did not become leader after c1 released")
	}
	// And c1's subsequent access is forwarded to c2.
	if _, err := c1.Stat(context.Background(), "/dir/file2"); err != nil {
		t.Fatal(err)
	}
}

func TestClientCrashRecoveryEndToEnd(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	if err := c1.Mkdir(context.Background(), "/work", 0777); err != nil {
		t.Fatal(err)
	}
	// Ensure the tree is durable before the doomed operations.
	if err := c1.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := c1.resolvePath(context.Background(), "/work", true)
	if err != nil {
		t.Fatal(err)
	}
	workIno := res.node.Ino

	// c1 creates files and force-commits the journal WITHOUT checkpointing:
	// simulate by flushing, then crashing before the background checkpoint…
	// Flush checkpoints too, so instead we write journal records directly
	// through c1's journal and crash. Simplest honest approach: create files,
	// flush (commit+checkpoint), then create more and crash with the commit
	// interval long enough that nothing was committed — those are lost (as
	// allowed), but any committed-but-not-checkpointed txn must be replayed.
	f, err := c1.Create(context.Background(), "/work/durable", 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if err := c1.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	c1.Crash()

	// The lease manager refuses access until expiry + grace, then lets the
	// next client recover.
	c2 := tc.client(t, "c2")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c2.Stat(context.Background(), "/work/durable"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("c2 never recovered /work")
		}
		time.Sleep(50 * time.Millisecond)
	}
	st, err := c2.Stat(context.Background(), "/work/durable")
	if err != nil || st.Type != types.TypeRegular {
		t.Fatalf("after recovery: %+v, %v", st, err)
	}
	_ = workIno
}

func TestCommittedButNotCheckpointedSurvivesCrash(t *testing.T) {
	tc := newTestCluster(t)
	// Use a journal that commits instantly but whose checkpoints we can
	// stall via fault injection on inode/dentry writes... simpler: commit
	// with a tiny interval, crash immediately after the journal object
	// appears in the store but (likely) before checkpoint. To make it
	// deterministic, block checkpoint writes with injected failures.
	c1 := tc.client(t, "c1")
	if err := c1.Mkdir(context.Background(), "/j", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c1.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, _ := c1.resolvePath(context.Background(), "/j", true)
	jIno := res.node.Ino

	// Fail every non-journal write (checkpoint targets) so Flush commits the
	// txn but cannot apply it.
	tc.fault.FailNext("i:", 100) // checkpoint inode writes fail; journal ("j:") commits succeed
	f, err := c1.Create(context.Background(), "/j/ghost", 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	_ = c1.FlushAll(context.Background()) // commit succeeds; checkpoint fails (error recorded)
	c1.Crash()
	tc.fault.FailNext("", 0) // heal

	// Journal must contain the committed txn.
	keys, _ := tc.store.List("j:" + jIno.String() + ":")
	if len(keys) == 0 {
		t.Fatal("no journal record survived the crash")
	}

	c2 := tc.client(t, "c2")
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := c2.Stat(context.Background(), "/j/ghost"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovery did not replay the committed create")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestRenameSameDirectory(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/d", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := c.Create(context.Background(), "/d/old", 0644)
	_, _ = f.Write([]byte("content"))
	_ = f.Close()
	if err := c.Rename(context.Background(), "/d/old", "/d/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(context.Background(), "/d/old"); !isNotExist(err) {
		t.Fatalf("old name survives: %v", err)
	}
	st, err := c.Stat(context.Background(), "/d/new")
	if err != nil || st.Size != 7 {
		t.Fatalf("new name: %+v, %v", st, err)
	}
	// Rename onto an existing file replaces it.
	g, _ := c.Create(context.Background(), "/d/other", 0644)
	_ = g.Close()
	if err := c.Rename(context.Background(), "/d/new", "/d/other"); err != nil {
		t.Fatal(err)
	}
	ents, _ := c.Readdir(context.Background(), "/d")
	if len(ents) != 1 || ents[0].Name != "other" {
		t.Fatalf("after replace: %v", ents)
	}
}

func TestRenameCrossDirectorySingleClient(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	for _, d := range []string{"/src", "/dst"} {
		if err := c.Mkdir(context.Background(), d, 0777); err != nil {
			t.Fatal(err)
		}
	}
	f, _ := c.Create(context.Background(), "/src/file", 0644)
	_, _ = f.Write([]byte("move me"))
	_ = f.Close()
	if err := c.Rename(context.Background(), "/src/file", "/dst/renamed"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(context.Background(), "/src/file"); !isNotExist(err) {
		t.Fatalf("source survives: %v", err)
	}
	st, err := c.Stat(context.Background(), "/dst/renamed")
	if err != nil || st.Size != 7 {
		t.Fatalf("dest: %+v, %v", st, err)
	}
	// Data is intact.
	h, _ := c.Open(context.Background(), "/dst/renamed", types.ORdonly, 0)
	got, _ := io.ReadAll(h)
	_ = h.Close()
	if string(got) != "move me" {
		t.Fatalf("content after rename: %q", got)
	}
	// Everything checkpointed cleanly: no journal residue after the strong
	// flush (Client.FlushAll is only a durability barrier).
	if err := c.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.jrnl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	keys, _ := tc.store.List("j:")
	if len(keys) != 0 {
		t.Fatalf("journal residue after rename: %v", keys)
	}
}

func TestRenameCrossClient2PC(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")
	if err := c1.Mkdir(context.Background(), "/a", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c2.Mkdir(context.Background(), "/b", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := c1.Create(context.Background(), "/a/file", 0666)
	_, _ = f.Write([]byte("x"))
	_ = f.Close()
	// c1 leads /a, c2 leads /b. c2 initiates: the rename is forwarded to
	// c1 (source leader), which runs 2PC with c2 (destination leader).
	if err := c2.Rename(context.Background(), "/a/file", "/b/file"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Stat(context.Background(), "/a/file"); !isNotExist(err) {
		t.Fatalf("src survives on c1: %v", err)
	}
	if st, err := c2.Stat(context.Background(), "/b/file"); err != nil || st.Size != 1 {
		t.Fatalf("dst on c2: %+v, %v", st, err)
	}
	// The destination directory's listing is served by c2 locally.
	ents, err := c2.Readdir(context.Background(), "/b")
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir /b: %v, %v", ents, err)
	}
}

func TestRenameDirectoryCycleRejected(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/p", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir(context.Background(), "/p/q", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename(context.Background(), "/p", "/p/q/r"); !errors.Is(err, types.ErrInval) {
		t.Fatalf("cycle rename: %v", err)
	}
}

func TestDataLeaseConflictFallsBackToDirect(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")
	if err := c1.Mkdir(context.Background(), "/s", 0777); err != nil {
		t.Fatal(err)
	}
	f1, err := c1.Open(context.Background(), "/s/shared", types.ORdwr|types.OCreate, 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.Write([]byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := f1.Sync(); err != nil {
		t.Fatal(err)
	}
	// c2 opens the same file (read lease) and then writes: conflict with
	// c1's lease → both go direct.
	f2, err := c2.Open(context.Background(), "/s/shared", types.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.WriteAt([]byte("bb"), 0); err != nil {
		t.Fatal(err)
	}
	f2.of.mu.Lock()
	direct2 := f2.of.direct
	f2.of.mu.Unlock()
	if !direct2 {
		t.Fatal("c2 write with concurrent lease holders should be direct")
	}
	// c2's direct write is immediately visible in the store; c1's next read
	// (after its cache was flushed by broadcast) sees it.
	buf := make([]byte, 4)
	if _, err := f1.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte("bbaa")) {
		t.Fatalf("c1 sees %q, want bbaa", buf)
	}
	_ = f2.Close()
	_ = f1.Close()
}

func TestPermissionCachingModeServesLocally(t *testing.T) {
	tc := newTestCluster(t)
	leader := tc.client(t, "leader")
	pc := tc.client(t, "pc", func(o *Options) {
		o.PermCache = true
		o.Cred = types.Cred{Uid: 2000, Gid: 2000} // not the owner of /hot
	})

	if err := leader.Mkdir(context.Background(), "/hot", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := leader.Create(context.Background(), "/hot/f", 0666)
	_ = f.Close()

	// First stat by pc: remote lookups, populating the cache.
	if _, err := pc.Stat(context.Background(), "/hot/f"); err != nil {
		t.Fatal(err)
	}
	remoteAfterFirst := pc.StatCounters().RemoteMetaOps.Load()
	// Repeat stats: directory traversal is served from the permission cache;
	// only the final file lookup goes to the leader (attributes stay fresh).
	for i := 0; i < 10; i++ {
		if _, err := pc.Stat(context.Background(), "/hot/f"); err != nil {
			t.Fatal(err)
		}
	}
	if got := pc.StatCounters().RemoteMetaOps.Load() - remoteAfterFirst; got > 10 {
		t.Fatalf("pcache mode issued %d remote ops for 10 stats; traversal not cached", got)
	}
	if pc.StatCounters().PcacheHits.Load() == 0 {
		t.Fatal("no pcache hits recorded")
	}

	// The relaxation bound: a chmod by the leader becomes visible to pc no
	// later than one lease period (immediately here, because the final
	// lookup is leader-checked; locally resolved segments may stay stale
	// until the cache entry expires).
	if err := leader.Chmod(context.Background(), "/hot", 0700); err != nil {
		t.Fatal(err)
	}
	time.Sleep(tc.mgr.Period() + 50*time.Millisecond)
	if _, err := pc.Stat(context.Background(), "/hot/f"); !errors.Is(err, types.ErrAccess) {
		t.Fatalf("after one lease period the chmod must be visible: %v", err)
	}
}

func TestLeaseExtensionKeepsLeadershipAcrossExpiry(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/long", 0777); err != nil {
		t.Fatal(err)
	}
	// Work across several lease periods; extensions must keep ops local.
	for i := 0; i < 6; i++ {
		f, err := c.Create(context.Background(), "/long/f"+string(rune('0'+i)), 0644)
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		_ = f.Close()
		time.Sleep(tc.mgr.Period() / 3)
	}
	if got := tc.mgr.Stats().Extensions.Load(); got == 0 {
		t.Fatal("no lease extensions recorded")
	}
	ents, err := c.Readdir(context.Background(), "/long")
	if err != nil || len(ents) != 6 {
		t.Fatalf("readdir: %d entries, %v", len(ents), err)
	}
}
