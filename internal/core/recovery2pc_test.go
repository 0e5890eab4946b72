package core

import (
	"context"
	"testing"
	"time"

	"arkfs/internal/prt"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// TestCrashDuringCrossClientRenameRecovers exercises the full §III-E story
// at the client level: a rename between directories led by two clients, one
// of which crashes mid-protocol; surviving state must converge after
// recovery — the file exists in exactly one of the two directories.
func TestCrashDuringCrossClientRenameRecovers(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")
	if err := c1.Mkdir(context.Background(), "/src", 0777); err != nil {
		t.Fatal(err)
	}
	if err := c2.Mkdir(context.Background(), "/dst", 0777); err != nil {
		t.Fatal(err)
	}
	f, err := c1.Create(context.Background(), "/src/file", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c1.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The rename completes; then BOTH clients crash before further flushes.
	// Everything the rename needed durable (prepare, decision, applied
	// checkpoints or journal records) must let a third client reconstruct a
	// consistent tree.
	if err := c2.Rename(context.Background(), "/src/file", "/dst/file"); err != nil {
		t.Fatal(err)
	}
	c1.Crash()
	c2.Crash()

	c3 := tc.client(t, "c3")
	deadline := time.Now().Add(15 * time.Second)
	var inSrc, inDst bool
	for {
		_, errSrc := c3.Stat(context.Background(), "/src/file")
		_, errDst := c3.Stat(context.Background(), "/dst/file")
		inSrc, inDst = errSrc == nil, errDst == nil
		if inSrc != inDst { // exactly one location: converged
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rename state never converged: inSrc=%v inDst=%v (errSrc=%v errDst=%v)",
				inSrc, inDst, errSrc, errDst)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !inDst {
		t.Fatalf("committed rename rolled back: file in src=%v dst=%v", inSrc, inDst)
	}
	// No journal residue after recovery settles and c3 flushes.
	if err := c3.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Force recovery of both directories by listing them through c3.
	if _, err := c3.Readdir(context.Background(), "/src"); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Readdir(context.Background(), "/dst"); err != nil {
		t.Fatal(err)
	}
	keys, _ := tc.store.List(prt.PrefixJournal)
	// Retained 2PC decision records are permitted; committed transaction
	// records are not (they would mean unreplayed state).
	for _, k := range keys {
		t.Logf("journal residue (allowed if decision record): %s", k)
	}
}

// TestRecoveryAfterCrashWithBufferedOps: operations buffered in the running
// transaction (never committed) are allowed to be lost on crash, but
// everything before the last fsync must survive.
func TestRecoveryAfterCrashWithBufferedOps(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1", func(o *Options) {
		// A very long commit interval: buffered ops are never committed
		// unless fsynced.
		o.Journal.CommitInterval = time.Hour
	})
	if err := c1.Mkdir(context.Background(), "/w", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := c1.Create(context.Background(), "/w/durable", 0644)
	_ = f.Close()
	if err := c1.FlushAll(context.Background()); err != nil { // fsync barrier
		t.Fatal(err)
	}
	g, _ := c1.Create(context.Background(), "/w/volatile", 0644)
	_ = g.Close()
	c1.Crash() // /w/volatile was only in the running transaction

	c2 := tc.client(t, "c2")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := c2.Stat(context.Background(), "/w/durable"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("durable file lost")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The volatile file may be lost (allowed), but the directory must be
	// consistent: listing works and contains the durable entry.
	ents, err := c2.Readdir(context.Background(), "/w")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, de := range ents {
		if de.Name == "durable" {
			found = true
		}
	}
	if !found {
		t.Fatalf("durable entry missing from %v", ents)
	}
}

// TestRecoveryReplaysUnlink: a committed-but-not-checkpointed unlink must be
// replayed, removing both the entry and its data chunks.
func TestRecoveryReplaysUnlink(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	if err := c1.Mkdir(context.Background(), "/u", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := c1.Create(context.Background(), "/u/victim", 0644)
	_, _ = f.Write(make([]byte, 10000))
	_ = f.Sync()
	_ = f.Close()
	if err := c1.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fail checkpoint-side deletes so the unlink commits but cannot apply.
	tc.fault.FailNext("i:", 100)
	if err := c1.Unlink(context.Background(), "/u/victim"); err != nil {
		t.Fatal(err)
	}
	_ = c1.FlushAll(context.Background()) // commit lands; checkpoint fails
	c1.Crash()
	tc.fault.FailNext("", 0)

	c2 := tc.client(t, "c2")
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, err := c2.Stat(context.Background(), "/u/victim"); isNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unlink never replayed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Its data chunks are gone too.
	keys, _ := tc.store.List(prt.PrefixData)
	if len(keys) != 0 {
		t.Fatalf("victim data survived recovery: %v", keys)
	}
	_ = types.ErrNotExist
}

// The destination's leader dies after both prepares, while the coordinator
// has not decided yet. The successor that recovers the destination must not
// presume the rename aborted: it serves the moved entry tentatively, as the
// participant did, and its resolver commits it once the decision lands.
func TestSuccessorHoldsUndecidedRename(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	coord := tc.client(t, "coord")
	part := tc.client(t, "part")
	for _, dir := range []string{"/src", "/dst"} {
		if err := coord.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	ino := seedFile(t, coord, "/src/f", "moving", 0666)
	seedFile(t, part, "/dst/other", "", 0666)
	srcDir, dstDir := statIno(t, coord, "/src"), statIno(t, part, "/dst")
	if !part.Leads(dstDir) {
		t.Fatal("setup: part should lead /dst")
	}
	for _, c := range []*Client{coord, part} {
		if err := c.jrnl.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	moving, err := tc.tr.LoadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	// The two prepare records of /src/f -> /dst/f, as the legs write them,
	// in slots far past anything either journal uses.
	const txid, seq = 1<<40 | 1, 1 << 20
	plant := func(dir types.Ino, txn *wire.Txn) {
		t.Helper()
		if err := tc.store.Put(prt.JournalKey(dir, seq+uint64(txn.Kind)), wire.EncodeTxn(txn)); err != nil {
			t.Fatal(err)
		}
	}
	plant(srcDir, &wire.Txn{ID: txid, Dir: srcDir, Kind: wire.TxnCoordPrepare, Peer: dstDir,
		Ops: []wire.Op{{Kind: wire.OpDelDentry, Name: "f"}}})
	plant(dstDir, &wire.Txn{ID: txid, Dir: dstDir, Kind: wire.TxnPrepare, Peer: srcDir, Ops: []wire.Op{
		{Kind: wire.OpAddDentry, Name: "f", Ino: ino, FType: types.TypeRegular},
		{Kind: wire.OpSetInode, Inode: moving}}})
	part.Crash()

	succ := tc.client(t, "succ")
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		node, err := succ.Stat(ctx, "/dst/f")
		if err == nil && node.Ino == ino {
			break
		}
		if time.Now().After(end) {
			t.Fatalf("the successor stats /dst/f as %+v, %v; want the moved file held tentatively", node, err)
		}
	}
	if keys, _ := tc.store.List(prt.JournalPrefix(dstDir)); len(keys) != 1 {
		t.Fatalf("the successor kept %v of the destination's journal, want the prepare", keys)
	}
	plant(srcDir, &wire.Txn{ID: txid, Dir: srcDir, Kind: wire.TxnCommit, Peer: dstDir})
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if keys, _ := tc.store.List(prt.JournalPrefix(dstDir)); len(keys) == 0 {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the successor's resolver never committed the rename")
		}
	}
	if err := succ.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	ents, err := tc.tr.LoadDentries(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range ents {
		found = found || e.Name == "f" && e.Ino == ino
	}
	if !found {
		t.Fatalf("the committed rename is not in /dst: %v", ents)
	}
}

// The destination's leader gives the directory up (ReleaseDir) after it
// prepared a rename and before the decision reaches it. Its successor must
// hold the prepared rename, as a crashed participant's successor does, and
// the commit must show the file at the destination.
func TestReleasedParticipantKeepsItsRename(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	coord := tc.client(t, "coord")
	part := tc.client(t, "part")
	for _, dir := range []string{"/src", "/dst"} {
		if err := coord.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	ino := seedFile(t, coord, "/src/f", "moving", 0666)
	seedFile(t, part, "/dst/other", "", 0666)
	srcDir, dstDir := statIno(t, coord, "/src"), statIno(t, part, "/dst")
	ld, ok := part.ledDirFor(dstDir)
	if !ok {
		t.Fatal("setup: part should lead /dst")
	}
	for _, c := range []*Client{coord, part} {
		if err := c.jrnl.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	moving, err := tc.tr.LoadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator's prepare of /src/f -> /dst/f, as its leg writes it,
	// then the participant's leg itself.
	const txid, seq = 1<<40 | 1, 1 << 20
	plant := func(kind wire.TxnKind, ops []wire.Op) {
		t.Helper()
		txn := &wire.Txn{ID: txid, Dir: srcDir, Kind: kind, Peer: dstDir, Ops: ops}
		if err := tc.store.Put(prt.JournalKey(srcDir, seq+uint64(kind)), wire.EncodeTxn(txn)); err != nil {
			t.Fatal(err)
		}
	}
	plant(wire.TxnCoordPrepare, []wire.Op{{Kind: wire.OpDelDentry, Name: "f"}})
	prep := PrepareRenameReq{TxID: txid, CoordDir: srcDir, DstDir: dstDir, DstName: "f", Child: moving, Cred: types.Cred{Uid: 1000, Gid: 1000}}
	if err := part.prepareRenameLocal(ctx, ld, prep); err != nil {
		t.Fatal(err)
	}
	if err := part.ReleaseDir(dstDir); err != nil {
		t.Fatal(err)
	}

	succ := tc.client(t, "succ")
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if _, err := succ.Stat(ctx, "/dst/other"); err == nil && succ.Leads(dstDir) {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the successor never led /dst")
		}
	}
	held, _ := succ.ledDirFor(dstDir)
	succ.mu.Lock()
	_, holds := held.renames[txid]
	succ.mu.Unlock()
	if !holds {
		t.Fatal("the successor of a participant that released holds no prepared rename")
	}
	plant(wire.TxnCommit, nil)
	for end := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		if keys, _ := tc.store.List(prt.JournalPrefix(dstDir)); len(keys) == 0 {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the successor's resolver never committed the rename")
		}
	}
	if node, err := succ.Stat(ctx, "/dst/f"); err != nil || node.Ino != ino {
		t.Fatalf("the committed rename is not in /dst: %+v, %v", node, err)
	}
}
