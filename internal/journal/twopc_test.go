package journal

import (
	"context"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// renameFixture builds two directories, each containing one file, and
// returns the ops that move "src/f" to "dst/g".
type renameFixture struct {
	tr       *prt.Translator
	src, dst types.Ino
	file     *types.Inode
	srcOps   []wire.Op
	dstOps   []wire.Op
}

func newRenameFixture(t *testing.T, tr *prt.Translator) *renameFixture {
	t.Helper()
	isrc := types.NewInoSource(21)
	fx := &renameFixture{tr: tr, src: isrc.Next(), dst: isrc.Next()}
	fx.file = &types.Inode{Ino: isrc.Next(), Type: types.TypeRegular, Mode: 0644, Nlink: 1}
	if err := tr.SaveInode(fx.file); err != nil {
		t.Fatal(err)
	}
	if err := tr.SaveDentries(fx.src, []wire.Dentry{{Name: "f", Ino: fx.file.Ino, Type: types.TypeRegular}}); err != nil {
		t.Fatal(err)
	}
	fx.srcOps = []wire.Op{{Kind: wire.OpDelDentry, Name: "f"}}
	fx.dstOps = []wire.Op{{Kind: wire.OpAddDentry, Name: "g", Ino: fx.file.Ino, FType: types.TypeRegular}}
	return fx
}

// prepare writes the rename's two prepare records, the coordinator's (src)
// first, and returns both sides.
func (fx *renameFixture) prepare(t *testing.T, j *Journal) (src, dst *Rename) {
	t.Helper()
	txid := j.NewTxnID()
	src = &Rename{TxID: txid, Dir: fx.src, Peer: fx.dst, Coord: true, Ops: fx.srcOps}
	dst = &Rename{TxID: txid, Dir: fx.dst, Peer: fx.src, Ops: fx.dstOps}
	for _, r := range []*Rename{src, dst} {
		if err := j.WritePrepare(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	return src, dst
}

func (fx *renameFixture) assertRenamed(t *testing.T) {
	t.Helper()
	srcEnts, _ := fx.tr.LoadDentries(fx.src)
	dstEnts, _ := fx.tr.LoadDentries(fx.dst)
	if len(srcEnts) != 0 {
		t.Fatalf("src still has %v", srcEnts)
	}
	if len(dstEnts) != 1 || dstEnts[0].Name != "g" || dstEnts[0].Ino != fx.file.Ino {
		t.Fatalf("dst has %v", dstEnts)
	}
}

func (fx *renameFixture) assertUnrenamed(t *testing.T) {
	t.Helper()
	srcEnts, _ := fx.tr.LoadDentries(fx.src)
	dstEnts, _ := fx.tr.LoadDentries(fx.dst)
	if len(srcEnts) != 1 || srcEnts[0].Name != "f" {
		t.Fatalf("src lost the file: %v", srcEnts)
	}
	if len(dstEnts) != 0 {
		t.Fatalf("dst gained %v", dstEnts)
	}
}

func twoPCSetup(t *testing.T) (*prt.Translator, *Journal, func()) {
	t.Helper()
	env := sim.NewRealEnv()
	tr := prt.New(objstore.NewMemStore(), 64)
	j := New(env, tr, Config{CommitInterval: time.Hour, CommitWorkers: 2, CheckpointWorkers: 2})
	return tr, j, func() { j.Close(); env.Shutdown() }
}

// decide writes the coordinator's decision and resolves the coordinator's side.
func decide(t *testing.T, j *Journal, src *Rename, commit bool) {
	t.Helper()
	if err := j.WriteDecision(context.Background(), src, commit); err != nil {
		t.Fatal(err)
	}
	if err := j.ResolvePrepared(context.Background(), *src, commit); err != nil {
		t.Fatal(err)
	}
}

func TestTwoPCHappyPath(t *testing.T) {
	tr, j, stop := twoPCSetup(t)
	defer stop()
	fx := newRenameFixture(t, tr)
	src, dst := fx.prepare(t, j)
	decide(t, j, src, true)
	if err := j.ResolvePrepared(context.Background(), *dst, true); err != nil {
		t.Fatal(err)
	}
	if err := j.DeleteDecision(*src); err != nil {
		t.Fatal(err)
	}
	fx.assertRenamed(t)
	// All journal records cleaned up, including the GC'd decision.
	srcKeys, _ := tr.Store().List(prt.JournalPrefix(fx.src))
	dstKeys, _ := tr.Store().List(prt.JournalPrefix(fx.dst))
	if len(srcKeys)+len(dstKeys) != 0 {
		t.Fatalf("journal residue: %v %v", srcKeys, dstKeys)
	}
}

func TestTwoPCAbortDiscardsOps(t *testing.T) {
	tr, j, stop := twoPCSetup(t)
	defer stop()
	fx := newRenameFixture(t, tr)
	src, dst := fx.prepare(t, j)
	decide(t, j, src, false)
	if err := j.ResolvePrepared(context.Background(), *dst, false); err != nil {
		t.Fatal(err)
	}
	if err := j.DeleteDecision(*src); err != nil {
		t.Fatal(err)
	}
	fx.assertUnrenamed(t)
}

func TestTwoPCRecoveryCommitted(t *testing.T) {
	// Both sides prepared, decision=commit written, then both leaders crash
	// before applying. Recovery of both directories must complete the
	// rename regardless of order.
	for _, order := range [][2]string{{"src", "dst"}, {"dst", "src"}} {
		t.Run(order[0]+"-first", func(t *testing.T) {
			tr, j, stop := twoPCSetup(t)
			fx := newRenameFixture(t, tr)
			src, _ := fx.prepare(t, j)
			if err := j.WriteDecision(context.Background(), src, true); err != nil {
				t.Fatal(err)
			}
			stop() // crash: nothing applied

			dirs := map[string]types.Ino{"src": fx.src, "dst": fx.dst}
			var reports []Report
			for _, which := range order {
				rep, err := Recover(tr, dirs[which])
				if err != nil {
					t.Fatal(err)
				}
				reports = append(reports, rep)
			}
			if reports[0].Committed2PC+reports[1].Committed2PC != 2 {
				t.Fatalf("2PC commits = %d+%d, want 2 total: %+v",
					reports[0].Committed2PC, reports[1].Committed2PC, reports)
			}
			fx.assertRenamed(t)
		})
	}
}

// Both sides prepared but the coordinator crashed before writing any
// decision. While the coordinator's prepare stands, the participant's
// successor waits: the coordinator's leader may still decide. The
// coordinator's successor presumes abort, and then so does the participant.
func TestTwoPCRecoveryPresumedAbort(t *testing.T) {
	tr, j, stop := twoPCSetup(t)
	fx := newRenameFixture(t, tr)
	fx.prepare(t, j)
	stop()

	rep, err := Recover(tr, fx.dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted2PC != 0 || len(rep.Pending) != 1 {
		t.Fatalf("dst recovered before src: %+v, want its prepare pending", rep)
	}
	for _, dir := range []types.Ino{fx.src, fx.dst} {
		rep, err := Recover(tr, dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Aborted2PC != 1 || len(rep.Pending) != 0 {
			t.Fatalf("dir %s: %+v", dir.Short(), rep)
		}
	}
	fx.assertUnrenamed(t)
}

// The participant's leader loses its lease after both prepares; its
// successor recovers the destination while the coordinator's leader is alive
// and has not decided. The successor must not presume abort: the coordinator
// then commits and removes the file from the source. The successor holds the
// prepare, and the decision leg (or its resolver) commits it.
func TestTwoPCSuccessorWaitsForLiveCoordinator(t *testing.T) {
	tr, j, stop := twoPCSetup(t)
	defer stop()
	fx := newRenameFixture(t, tr)
	src, _ := fx.prepare(t, j)

	rep, err := Recover(tr, fx.dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted2PC != 0 || len(rep.Pending) != 1 {
		t.Fatalf("successor recovery: %+v, want the prepare pending", rep)
	}
	if keys, _ := tr.Store().List(prt.JournalPrefix(fx.dst)); len(keys) != 1 {
		t.Fatalf("successor dropped the prepare record: %v", keys)
	}
	decide(t, j, src, true)
	if err := j.ResolvePrepared(context.Background(), rep.Pending[0], true); err != nil {
		t.Fatal(err)
	}
	fx.assertRenamed(t)
}

func TestTwoPCRecoveryOneSideApplied(t *testing.T) {
	// The coordinator applied and cleaned up; the participant crashed before
	// applying. Participant recovery must find the retained decision record
	// and commit.
	tr, j, stop := twoPCSetup(t)
	fx := newRenameFixture(t, tr)
	src, _ := fx.prepare(t, j)
	decide(t, j, src, true)
	stop() // participant crashes before applying

	// Coordinator recovery first: it must retain the decision record
	// because the participant's prepare is still outstanding.
	if _, err := Recover(tr, fx.src); err != nil {
		t.Fatal(err)
	}
	rep, err := Recover(tr, fx.dst)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed2PC != 1 {
		t.Fatalf("participant recovery: %+v", rep)
	}
	fx.assertRenamed(t)
	// A final coordinator recovery sweep garbage-collects the decision.
	if _, err := Recover(tr, fx.src); err != nil {
		t.Fatal(err)
	}
	keys, _ := tr.Store().List(prt.JournalPrefix(fx.src))
	if len(keys) != 0 {
		t.Fatalf("decision record leaked: %v", keys)
	}
}

func TestPrepareFlushesRunningTxnFirst(t *testing.T) {
	// Ordering: a buffered create in src must land in the journal before the
	// prepare record, so crash replay preserves operation order.
	tr, j, stop := twoPCSetup(t)
	fx := newRenameFixture(t, tr)
	src := types.NewInoSource(33)
	extra := &types.Inode{Ino: src.Next(), Type: types.TypeRegular, Nlink: 1}
	j.Log(context.Background(), fx.src, []wire.Op{
		{Kind: wire.OpSetInode, Inode: extra},
		{Kind: wire.OpAddDentry, Name: "pending", Ino: extra.Ino, FType: types.TypeRegular},
	})
	r := &Rename{TxID: j.NewTxnID(), Dir: fx.src, Peer: fx.dst, Coord: true, Ops: fx.srcOps}
	if err := j.WritePrepare(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	stop()
	// Crash now: replay must apply the create (it was flushed by the
	// prepare), then presume-abort the prepare.
	rep, err := Recover(tr, fx.src)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aborted2PC != 1 {
		t.Fatalf("report: %+v", rep)
	}
	ents, _ := tr.LoadDentries(fx.src)
	names := map[string]bool{}
	for _, e := range ents {
		names[e.Name] = true
	}
	if !names["pending"] || !names["f"] {
		t.Fatalf("expected both pending and f present: %v", ents)
	}
}
