package journal

import (
	"context"
	"errors"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

func testSetup(t *testing.T) (sim.Env, *prt.Translator, *Journal, func()) {
	t.Helper()
	env := sim.NewRealEnv()
	tr := prt.New(objstore.NewMemStore(), 64)
	j := New(env, tr, Config{CommitInterval: 10 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2})
	return env, tr, j, func() { j.Close(); env.Shutdown() }
}

func mkFileInode(src *types.InoSource, size int64) *types.Inode {
	return &types.Inode{Ino: src.Next(), Type: types.TypeRegular, Mode: 0644, Nlink: 1, Size: size}
}

func createOps(dir types.Ino, name string, child *types.Inode) []wire.Op {
	return []wire.Op{
		{Kind: wire.OpSetInode, Inode: child},
		{Kind: wire.OpAddDentry, Name: name, Ino: child.Ino, FType: child.Type},
	}
}

func TestLogFlushCheckpointsToOriginals(t *testing.T) {
	_, tr, j, stop := testSetup(t)
	defer stop()
	src := types.NewInoSource(1)
	dir := src.Next()
	child := mkFileInode(src, 10)
	j.Log(context.Background(), dir, createOps(dir, "f1", child))
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	// The inode and dentry objects must now exist.
	got, err := tr.LoadInode(child.Ino)
	if err != nil || got.Size != 10 {
		t.Fatalf("inode after flush: %+v, %v", got, err)
	}
	ents, err := tr.LoadDentries(dir)
	if err != nil || len(ents) != 1 || ents[0].Name != "f1" {
		t.Fatalf("dentries after flush: %v, %v", ents, err)
	}
	// The journal must be empty (checkpoint invalidated it).
	keys, _ := tr.Store().List(prt.JournalPrefix(dir))
	if len(keys) != 0 {
		t.Fatalf("journal not invalidated: %v", keys)
	}
}

func TestTimedCommitFiresWithoutFlush(t *testing.T) {
	_, tr, j, stop := testSetup(t)
	defer stop()
	src := types.NewInoSource(2)
	dir := src.Next()
	j.Log(context.Background(), dir, createOps(dir, "x", mkFileInode(src, 1)))
	deadline := time.Now().Add(2 * time.Second)
	for {
		ents, _ := tr.LoadDentries(dir)
		if len(ents) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("timed commit never checkpointed")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCompoundTransactionsBatch(t *testing.T) {
	// Many Logs inside one interval produce a small number of journal
	// objects (compound transactions), not one per operation.
	env := sim.NewRealEnv()
	defer env.Shutdown()
	store := objstore.NewMemStore()
	fault := objstore.NewFaultStore(store)
	tr := prt.New(fault, 64)
	j := New(env, tr, Config{CommitInterval: 50 * time.Millisecond, CommitWorkers: 1, CheckpointWorkers: 1})
	defer j.Close()
	src := types.NewInoSource(3)
	dir := src.Next()
	before := fault.Ops()
	for i := 0; i < 100; i++ {
		j.Log(context.Background(), dir, createOps(dir, "f"+string(rune('a'+i%26))+string(rune('a'+i/26)), mkFileInode(src, 1)))
	}
	if got := fault.Ops() - before; got != 0 {
		t.Fatalf("Log touched the store %d times; must be pure memory", got)
	}
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	ents, _ := tr.LoadDentries(dir)
	if len(ents) != 100 {
		t.Fatalf("dentries = %d, want 100", len(ents))
	}
}

func TestUnlinkDropsDataChunks(t *testing.T) {
	_, tr, j, stop := testSetup(t)
	defer stop()
	src := types.NewInoSource(4)
	dir := src.Next()
	f := mkFileInode(src, 200) // 200 bytes over 64-byte chunks = 4 chunks
	if err := tr.WriteAt(f.Ino, make([]byte, 200), 0); err != nil {
		t.Fatal(err)
	}
	j.Log(context.Background(), dir, createOps(dir, "victim", f))
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	j.Log(context.Background(), dir, []wire.Op{
		{Kind: wire.OpDelDentry, Name: "victim"},
		{Kind: wire.OpDelInode, Ino: f.Ino, Size: f.Size},
	})
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.LoadInode(f.Ino); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("inode survives unlink: %v", err)
	}
	keys, _ := tr.Store().List(prt.PrefixData)
	if len(keys) != 0 {
		t.Fatalf("data chunks survive unlink: %v", keys)
	}
}

func TestCrashBeforeCheckpointRecovers(t *testing.T) {
	// Commit the journal record but "crash" before checkpointing: a fresh
	// recovery replays the transaction.
	env := sim.NewRealEnv()
	defer env.Shutdown()
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(5)
	dir := src.Next()
	child := mkFileInode(src, 7)
	txn := &wire.Txn{ID: 1, Dir: dir, Kind: wire.TxnNormal, Ops: createOps(dir, "lost", child)}
	if err := tr.Store().Put(prt.JournalKey(dir, 0), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	if keys, err := tr.Store().List(prt.JournalPrefix(dir)); err != nil || len(keys) != 1 {
		t.Fatalf("journal before recovery: %v, %v", keys, err)
	}
	rep, err := Recover(tr, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.NextSeq != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if got, err := tr.LoadInode(child.Ino); err != nil || got.Size != 7 {
		t.Fatalf("replayed inode: %+v, %v", got, err)
	}
	ents, _ := tr.LoadDentries(dir)
	if len(ents) != 1 || ents[0].Name != "lost" {
		t.Fatalf("replayed dentries: %v", ents)
	}
	if keys, _ := tr.Store().List(prt.JournalPrefix(dir)); len(keys) != 0 {
		t.Fatalf("journal not cleared after recovery: %v", keys)
	}
}

func TestRecoveryIsIdempotent(t *testing.T) {
	// Simulate a crash mid-recovery: originals updated but the journal
	// record still present. Replaying again must converge.
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(6)
	dir := src.Next()
	child := mkFileInode(src, 7)
	ops := createOps(dir, "dup", child)
	txn := &wire.Txn{ID: 1, Dir: dir, Kind: wire.TxnNormal, Ops: ops}
	if err := tr.Store().Put(prt.JournalKey(dir, 0), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
	if err := ApplyOps(tr, dir, ops); err != nil { // first (interrupted) apply
		t.Fatal(err)
	}
	if _, err := Recover(tr, dir); err != nil { // replay over applied state
		t.Fatal(err)
	}
	ents, _ := tr.LoadDentries(dir)
	if len(ents) != 1 {
		t.Fatalf("idempotent replay broke dentries: %v", ents)
	}
}

func TestRecoveryDiscardsTornRecords(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(7)
	dir := src.Next()
	good := &wire.Txn{ID: 1, Dir: dir, Kind: wire.TxnNormal,
		Ops: createOps(dir, "ok", mkFileInode(src, 1))}
	if err := tr.Store().Put(prt.JournalKey(dir, 0), wire.EncodeTxn(good)); err != nil {
		t.Fatal(err)
	}
	torn := wire.EncodeTxn(&wire.Txn{ID: 2, Dir: dir, Kind: wire.TxnNormal,
		Ops: createOps(dir, "torn", mkFileInode(src, 1))})
	if err := tr.Store().Put(prt.JournalKey(dir, 1), torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(tr, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.Corrupt != 1 {
		t.Fatalf("report: %+v", rep)
	}
	ents, _ := tr.LoadDentries(dir)
	if len(ents) != 1 || ents[0].Name != "ok" {
		t.Fatalf("dentries: %v", ents)
	}
}

func TestFlushSurfacesCommitErrors(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fault := objstore.NewFaultStore(objstore.NewMemStore())
	tr := prt.New(fault, 64)
	j := New(env, tr, Config{CommitInterval: time.Hour, CommitWorkers: 1, CheckpointWorkers: 1})
	defer j.Close()
	src := types.NewInoSource(8)
	dir := src.Next()
	fault.FailNext(prt.PrefixJournal, 1)
	j.Log(context.Background(), dir, createOps(dir, "f", mkFileInode(src, 1)))
	if err := j.Flush(dir); !errors.Is(err, types.ErrIO) {
		t.Fatalf("flush must surface the commit failure, got %v", err)
	}
	// Subsequent flushes are clean (error consumed).
	if err := j.Flush(dir); err != nil {
		t.Fatalf("second flush: %v", err)
	}
}

func TestDentryOpsApplyInOrder(t *testing.T) {
	// add f; del f; add f (new ino) — final state must be the last add.
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(9)
	dir := src.Next()
	a, b := mkFileInode(src, 1), mkFileInode(src, 2)
	ops := []wire.Op{
		{Kind: wire.OpSetInode, Inode: a},
		{Kind: wire.OpAddDentry, Name: "f", Ino: a.Ino, FType: a.Type},
		{Kind: wire.OpDelDentry, Name: "f"},
		{Kind: wire.OpDelInode, Ino: a.Ino},
		{Kind: wire.OpSetInode, Inode: b},
		{Kind: wire.OpAddDentry, Name: "f", Ino: b.Ino, FType: b.Type},
	}
	if err := ApplyOps(tr, dir, ops); err != nil {
		t.Fatal(err)
	}
	ents, _ := tr.LoadDentries(dir)
	if len(ents) != 1 || ents[0].Ino != b.Ino {
		t.Fatalf("final dentries: %v", ents)
	}
	if _, err := tr.LoadInode(a.Ino); !errors.Is(err, types.ErrNotExist) {
		t.Fatal("first inode should be deleted")
	}
}

func TestParallelDirectoriesIndependentJournals(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		store := objstore.NewMemStore()
		tr := prt.New(store, 1024)
		j := New(env, tr, Config{CommitInterval: 100 * time.Millisecond, CommitWorkers: 4, CheckpointWorkers: 4})
		defer j.Close()
		src := types.NewInoSource(10)
		g := sim.NewGroup(env)
		dirs := make([]types.Ino, 8)
		for i := range dirs {
			dirs[i] = src.Next()
		}
		for i, dir := range dirs {
			dir := dir
			seed := int64(100 + i)
			g.Go(func() {
				local := types.NewInoSource(seed)
				for k := 0; k < 20; k++ {
					child := &types.Inode{Ino: local.Next(), Type: types.TypeRegular, Nlink: 1}
					j.Log(context.Background(), dir, createOps(dir, "f"+string(rune('a'+k)), child))
				}
				if err := j.Flush(dir); err != nil {
					t.Error(err)
				}
			})
		}
		g.Wait()
		for _, dir := range dirs {
			ents, err := tr.LoadDentries(dir)
			if err != nil || len(ents) != 20 {
				t.Errorf("dir %s: %d entries, %v", dir.Short(), len(ents), err)
			}
		}
	})
}
