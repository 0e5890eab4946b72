package journal

import (
	"context"
	"errors"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// A forced commit (Barrier/Flush) must cancel the armed group-commit timer;
// otherwise the stale timer fires later and enqueues a redundant empty
// commit for a batch that was already written.
func TestBarrierCancelsArmedCommitTimer(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fault := objstore.NewFaultStore(objstore.NewMemStore())
	tr := prt.New(fault, 64)
	reg := obs.NewRegistry()
	j := New(env, tr, Config{CommitInterval: 30 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2, Obs: reg})
	defer j.Close()
	src := types.NewInoSource(20)
	dir := src.Next()

	j.Log(context.Background(), dir, createOps(dir, "f", mkFileInode(src, 1)))
	if err := j.Flush(dir); err != nil { // forced commit before the timer fires
		t.Fatal(err)
	}
	j.mu.Lock()
	dj := j.dirs[dir]
	j.mu.Unlock()
	dj.mu.Lock()
	cancel := dj.cancel
	dj.mu.Unlock()
	if cancel != nil {
		t.Fatalf("forced commit left the timer armed: cancel=%p", cancel)
	}

	// Let the original interval elapse: the superseded tick must not touch
	// the store or count another commit.
	commits := reg.Counter("journal.commits").Value()
	ops := fault.Ops()
	time.Sleep(120 * time.Millisecond)
	if got := reg.Counter("journal.commits").Value(); got != commits {
		t.Fatalf("stale timer committed again: %d -> %d", commits, got)
	}
	if got := fault.Ops(); got != ops {
		t.Fatalf("stale timer touched the store: %d -> %d ops", ops, got)
	}
}

// The flush sweep must loop until the directory set is stable: a directory
// journaled while the sweep is in progress is flushed by a later pass, not
// silently skipped.
func TestFlushSweepPicksUpConcurrentlyJournaledDir(t *testing.T) {
	_, tr, j, stop := testSetup(t)
	defer stop()
	src := types.NewInoSource(21)
	dirA, dirB := src.Next(), src.Next()
	j.Log(context.Background(), dirA, createOps(dirA, "a", mkFileInode(src, 1)))

	// The first flush races a concurrent Log to a directory the sweep's
	// initial snapshot has never seen.
	logged := false
	err := j.sweep(func(d types.Ino) error {
		if !logged {
			logged = true
			j.Log(context.Background(), dirB, createOps(dirB, "b", mkFileInode(src, 1)))
		}
		return j.Flush(d)
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []types.Ino{dirA, dirB} {
		ents, err := tr.LoadDentries(d)
		if err != nil || len(ents) != 1 {
			t.Fatalf("dir %s not flushed by the sweep: %v, %v", d.Short(), ents, err)
		}
		if keys, _ := tr.Store().List(prt.JournalPrefix(d)); len(keys) != 0 {
			t.Fatalf("dir %s journal not empty after sweep: %v", d.Short(), keys)
		}
	}
}

// Appends on a closed journal are dropped instead of wedging a record no
// worker will ever write; barriers on a closed journal report shutdown.
func TestLogAfterCloseIsDropped(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	fault := objstore.NewFaultStore(objstore.NewMemStore())
	tr := prt.New(fault, 64)
	j := New(env, tr, Config{CommitInterval: time.Hour, CommitWorkers: 1, CheckpointWorkers: 1})
	j.Close()
	src := types.NewInoSource(22)
	dir := src.Next()

	j.Log(context.Background(), dir, createOps(dir, "late", mkFileInode(src, 1)))
	if got := fault.Ops(); got != 0 {
		t.Fatalf("Log after Close touched the store %d times", got)
	}
	if err := j.Barrier(dir); !errors.Is(err, types.ErrIO) {
		t.Fatalf("barrier on closed journal: %v, want shutdown error", err)
	}
}

// Barrier waits for durability only: a record that landed in the object
// store satisfies it even when the checkpoint behind it fails, because a
// durable record is recoverable by replay. Flush is the strong form and
// surfaces the checkpoint failure, leaving the record for recovery.
func TestBarrierIsDurabilityOnly(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fault := objstore.NewFaultStore(objstore.NewMemStore())
		fault.InjectLatency(env, time.Millisecond)
		tr := prt.New(fault, 64)
		reg := obs.NewRegistry()
		j := New(env, tr, Config{CommitInterval: time.Hour, CommitWorkers: 2, CheckpointWorkers: 2, Obs: reg})
		defer j.Close()
		src := types.NewInoSource(23)
		dir := src.Next()

		fault.FailNext(prt.PrefixInode, 1000) // every checkpoint apply fails
		j.Log(context.Background(), dir, createOps(dir, "f", mkFileInode(src, 1)))
		if err := j.Barrier(dir); err != nil {
			t.Fatalf("barrier must succeed on a durable record: %v", err)
		}
		if keys, _ := tr.Store().List(prt.JournalPrefix(dir)); len(keys) != 1 {
			t.Fatalf("durable journal record missing: %v", keys)
		}
		if err := j.Flush(dir); !errors.Is(err, types.ErrIO) {
			t.Fatalf("flush must surface the checkpoint failure, got %v", err)
		}
		if v := reg.Counter("journal.checkpoint.errors").Value(); v == 0 {
			t.Fatal("checkpoint error not counted")
		}
		// The failed checkpoint leaves the record in place: recovery replays it.
		if keys, _ := tr.Store().List(prt.JournalPrefix(dir)); len(keys) != 1 {
			t.Fatalf("journal record lost despite failed checkpoint: %v", keys)
		}
	})
}

// A directory's checkpoints apply its records in sequence order: each record
// replaces what the one before it wrote.
func TestPipelinePreservesPerDirOrder(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fault := objstore.NewFaultStore(objstore.NewMemStore())
		fault.InjectLatency(env, 10*time.Millisecond)
		tr := prt.New(fault, 64)
		j := New(env, tr, Config{CommitInterval: time.Millisecond, CommitWorkers: 8,
			CheckpointWorkers: 4})
		defer j.Close()
		src := types.NewInoSource(25)
		dir := src.Next()

		// Each record replaces the same name with a fresh inode. Applying any
		// record out of order leaves the wrong inode (or nothing) behind.
		var last *types.Inode
		for i := 0; i < 8; i++ {
			child := mkFileInode(src, int64(i+1))
			ops := []wire.Op{}
			if last != nil {
				ops = append(ops,
					wire.Op{Kind: wire.OpDelDentry, Name: "f"},
					wire.Op{Kind: wire.OpDelInode, Ino: last.Ino})
			}
			ops = append(ops,
				wire.Op{Kind: wire.OpSetInode, Inode: child},
				wire.Op{Kind: wire.OpAddDentry, Name: "f", Ino: child.Ino, FType: child.Type})
			j.Log(context.Background(), dir, ops)
			last = child
			env.Sleep(2 * time.Millisecond) // one sealed record per iteration
		}
		if err := j.Flush(dir); err != nil {
			t.Fatal(err)
		}
		ents, err := tr.LoadDentries(dir)
		if err != nil || len(ents) != 1 || ents[0].Ino != last.Ino {
			t.Fatalf("out-of-order checkpoint: %v, %v (want f -> %s)", ents, err, last.Ino.Short())
		}
		got, err := tr.LoadInode(last.Ino)
		if err != nil || got.Size != 8 {
			t.Fatalf("final inode: %+v, %v", got, err)
		}
	})
}

// One expiring commit timer seals every dirty directory: independent
// directories share a wakeup instead of each paying its own interval.
func TestGroupCommitSealsAllDirtyDirs(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		tr := prt.New(objstore.NewMemStore(), 64)
		reg := obs.NewRegistry()
		j := New(env, tr, Config{CommitInterval: 50 * time.Millisecond, CommitWorkers: 4,
			CheckpointWorkers: 4, Obs: reg})
		defer j.Close()
		src := types.NewInoSource(26)
		dirs := []types.Ino{src.Next(), src.Next(), src.Next()}
		for i, d := range dirs {
			j.Log(context.Background(), d, createOps(d, "f"+string(rune('a'+i)), mkFileInode(src, 1)))
		}
		env.Sleep(60 * time.Millisecond) // one tick covers all three directories
		if v := reg.Counter("journal.commits").Value(); v != 3 {
			t.Fatalf("commits after one tick = %d, want 3", v)
		}
		if v := reg.Counter("journal.group.seals").Value(); v != 2 {
			t.Fatalf("group seals = %d, want 2 (three dirs sharing one tick)", v)
		}
		for _, d := range dirs {
			ents, err := tr.LoadDentries(d)
			if err != nil || len(ents) != 1 {
				t.Fatalf("dir %s not checkpointed by the shared tick: %v, %v", d.Short(), ents, err)
			}
		}
	})
}

// A resolve answers with its own apply. A timed commit whose PUT fails
// between a rename's prepare and its resolve lost a record: that error is
// the next barrier's, and the resolve of a rename that committed succeeds.
func TestResolveLeavesTheLostRecordToTheBarrier(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fault := objstore.NewFaultStore(objstore.NewMemStore())
		fault.InjectLatency(env, time.Millisecond)
		tr := prt.New(fault, 64)
		j := New(env, tr, Config{CommitInterval: 10 * time.Millisecond, CommitWorkers: 1, CheckpointWorkers: 1})
		defer j.Close()
		ctx := context.Background()
		src := types.NewInoSource(27)
		dir, peer := src.Next(), src.Next()
		moved := mkFileInode(src, 1)
		r := &Rename{TxID: j.NewTxnID(), Dir: dir, Peer: peer, Ops: createOps(dir, "moved", moved)}
		if err := j.WritePrepare(ctx, r); err != nil {
			t.Fatal(err)
		}
		fault.FailNext(prt.PrefixJournal, 1) // the timed commit's PUT
		j.Log(ctx, dir, createOps(dir, "lost", mkFileInode(src, 1)))
		env.Sleep(50 * time.Millisecond)
		if err := j.ResolvePrepared(ctx, *r, true); err != nil {
			t.Fatalf("the resolve of a committed rename answered the lost record's error: %v", err)
		}
		if got, err := tr.LoadInode(moved.Ino); err != nil || got.Ino != moved.Ino {
			t.Fatalf("the resolve did not apply: %v, %v", got, err)
		}
		if err := j.Barrier(dir); !errors.Is(err, types.ErrIO) {
			t.Fatalf("the barrier after a lost record answered %v, want its PUT error", err)
		}
	})
}

// After DropDir no checkpoint of the directory starts: one still queued
// would write the originals, with no lease, over what a successor wrote.
// Its record stays in the journal for the successor's recovery.
func TestDroppedDirStopsCheckpointing(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fault := objstore.NewFaultStore(objstore.NewMemStore())
		fault.InjectLatency(env, time.Millisecond)
		tr := prt.New(fault, 64)
		j := New(env, tr, Config{CommitInterval: time.Hour, CommitWorkers: 2, CheckpointWorkers: 1})
		defer j.Close()
		ctx := context.Background()
		src := types.NewInoSource(28)
		dir := src.Next()
		a, b := mkFileInode(src, 1), mkFileInode(src, 1)
		for i, child := range []*types.Inode{a, b} {
			j.Log(ctx, dir, createOps(dir, string(rune('a'+i)), child))
			if err := j.Barrier(dir); err != nil {
				t.Fatal(err)
			}
		}
		j.DropDir(dir) // a's checkpoint is applying, b's waits behind it
		env.Sleep(100 * time.Millisecond)
		if _, err := tr.LoadInode(b.Ino); !errors.Is(err, types.ErrNotExist) {
			t.Fatalf("a dropped directory checkpointed its queued record: %v", err)
		}
		if keys, _ := tr.Store().List(prt.JournalPrefix(dir)); len(keys) != 1 {
			t.Fatalf("journal after the drop: %v, want the unapplied record", keys)
		}
	})
}
