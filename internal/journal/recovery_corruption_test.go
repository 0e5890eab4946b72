package journal

import (
	"context"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// plantTxn stores a sealed journal record for dir at seq.
func plantTxn(t *testing.T, st objstore.Store, dir types.Ino, seq uint64, txn *wire.Txn) {
	t.Helper()
	if err := st.Put(prt.JournalKey(dir, seq), wire.EncodeTxn(txn)); err != nil {
		t.Fatal(err)
	}
}

// flipStoredByte corrupts one byte of the object at key in place — bit rot at
// rest, visible to every subsequent read.
func flipStoredByte(t *testing.T, st objstore.Store, key string) {
	t.Helper()
	raw, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]byte(nil), raw...)
	cp[len(cp)/2] ^= 0x04
	if err := st.Put(key, cp); err != nil {
		t.Fatal(err)
	}
}

// names returns the dentry names in ents, for compact assertions.
func names(ents []wire.Dentry) map[string]bool {
	m := make(map[string]bool, len(ents))
	for _, e := range ents {
		m[e.Name] = true
	}
	return m
}

// A bit flip in the middle of the journal cuts it there: everything before
// the bad record replays, the bad record and everything after it — even
// though the later records verify cleanly — is discarded, exactly like a
// single-file write-ahead log truncated at the first bad block.
func TestRecoveryTruncatesAtMidJournalBitFlip(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(100)
	dir := src.Next()
	for seq, name := range []string{"before", "flipped", "after"} {
		plantTxn(t, tr.Store(), dir, uint64(seq), &wire.Txn{ID: uint64(seq + 1), Dir: dir,
			Kind: wire.TxnNormal, Ops: createOps(dir, name, mkFileInode(src, 1))})
	}
	flipStoredByte(t, tr.Store(), prt.JournalKey(dir, 1))

	reg := obs.NewRegistry()
	rep, err := (&Journal{tr: tr, cfg: Config{Obs: reg}}).recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.Corrupt != 1 || rep.Truncated != 2 || rep.NextSeq != 3 {
		t.Fatalf("report: %+v", rep)
	}
	ents, err := tr.LoadDentries(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := names(ents)
	if !got["before"] || got["flipped"] || got["after"] {
		t.Fatalf("dentries after truncation: %v", ents)
	}
	if v := reg.Counter("integrity.detected").Value(); v != 1 {
		t.Fatalf("integrity.detected = %d, want 1", v)
	}
	if v := reg.Counter("integrity.truncated").Value(); v != 2 {
		t.Fatalf("integrity.truncated = %d, want 2", v)
	}
	// The journal must be fully drained: replayed records invalidated,
	// truncated records deleted.
	keys, _ := tr.Store().List(prt.JournalPrefix(dir))
	if len(keys) != 0 {
		t.Fatalf("journal not emptied: %v", keys)
	}
}

// Trailing garbage — bytes that never were a sealed record — is detected and
// truncated without touching the committed prefix. A journal-prefixed key
// whose name does not parse as a sequence number is counted corrupt but left
// in place for the scrubber: it occupies no slot in the sequence.
func TestRecoveryTrailingGarbageAndForeignKeys(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(200)
	dir := src.Next()
	plantTxn(t, tr.Store(), dir, 0, &wire.Txn{ID: 1, Dir: dir, Kind: wire.TxnNormal,
		Ops: createOps(dir, "kept", mkFileInode(src, 1))})
	if err := tr.Store().Put(prt.JournalKey(dir, 1), []byte("not a sealed record at all")); err != nil {
		t.Fatal(err)
	}
	foreign := prt.JournalPrefix(dir) + "zzzz"
	if err := tr.Store().Put(foreign, []byte("junk")); err != nil {
		t.Fatal(err)
	}

	rep, err := Recover(tr, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.Corrupt != 2 || rep.Truncated != 1 {
		t.Fatalf("report: %+v", rep)
	}
	ents, _ := tr.LoadDentries(dir)
	if got := names(ents); !got["kept"] || len(got) != 1 {
		t.Fatalf("dentries: %v", ents)
	}
	if _, err := tr.Store().Get(foreign); err != nil {
		t.Fatalf("foreign key should be left for the scrubber: %v", err)
	}
}

// A corrupt record in the coordinator's journal may be the commit decision,
// so the participant must treat its prepared transaction as undecided —
// neither applying it nor presuming abort — and keep the prepare record.
// Once the record is restored (as the coordinator's own recovery would after
// re-running the decision), a later recovery pass resolves and applies it.
func TestRecoveryCorruptDecisionIsUndecided(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(300)
	part := src.Next()  // participant: the directory being recovered
	coord := src.Next() // coordinator: holds the decision record
	const txid = 42
	child := mkFileInode(src, 1)
	plantTxn(t, tr.Store(), part, 0, &wire.Txn{ID: txid, Dir: part, Kind: wire.TxnPrepare,
		Peer: coord, Ops: createOps(part, "renamed", child)})
	decision := &wire.Txn{ID: txid, Dir: coord, Kind: wire.TxnCommit, Peer: part}
	plantTxn(t, tr.Store(), coord, 0, decision)
	flipStoredByte(t, tr.Store(), prt.JournalKey(coord, 0))

	rep, err := Recover(tr, part)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Undecided2PC != 1 || rep.Committed2PC != 0 || rep.Aborted2PC != 0 {
		t.Fatalf("report with corrupt decision: %+v", rep)
	}
	// The prepare must be retained and its ops must not be applied.
	if keys, _ := tr.Store().List(prt.JournalPrefix(part)); len(keys) != 1 {
		t.Fatalf("prepare record not retained: %v", keys)
	}
	if ents, _ := tr.LoadDentries(part); len(ents) != 0 {
		t.Fatalf("undecided prepare was applied: %v", ents)
	}

	// Restore the decision record; the next pass commits.
	if err := tr.Store().Put(prt.JournalKey(coord, 0), wire.EncodeTxn(decision)); err != nil {
		t.Fatal(err)
	}
	rep, err = Recover(tr, part)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed2PC != 1 || rep.Undecided2PC != 0 {
		t.Fatalf("report after decision restored: %+v", rep)
	}
	if ents, _ := tr.LoadDentries(part); !names(ents)["renamed"] {
		t.Fatalf("committed prepare not applied: %v", ents)
	}
	if keys, _ := tr.Store().List(prt.JournalPrefix(part)); len(keys) != 0 {
		t.Fatalf("prepare record not invalidated after commit: %v", keys)
	}
}

// checkpointDir runs a real Log+Flush cycle so dir has a sealed dentry
// checkpoint and an empty journal, then shuts the journal down so the test
// can manipulate the store without a background checkpointer racing it.
func checkpointDir(t *testing.T, tr *prt.Translator, src *types.InoSource, dir types.Ino, name string) {
	t.Helper()
	env := sim.NewRealEnv()
	defer env.Shutdown()
	j := New(env, tr, Config{CommitInterval: time.Hour, CommitWorkers: 1, CheckpointWorkers: 1})
	j.Log(context.Background(), dir, createOps(dir, name, mkFileInode(src, 1)))
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	j.Close()
}

// A checkpoint corrupted at rest is rebuilt from journal replay: the dentry
// block is dropped and the surviving journal records are applied onto an
// empty directory. Entries only in the lost checkpoint are gone (the
// scrubber quarantines their inodes), but recovery completes and the
// directory is left readable with integrity.repaired counted.
func TestRecoveryRebuildsCorruptCheckpointFromJournal(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 64)
	src := types.NewInoSource(400)
	dir := src.Next()
	checkpointDir(t, tr, src, dir, "old")
	flipStoredByte(t, tr.Store(), prt.DentryKey(dir))
	plantTxn(t, tr.Store(), dir, 7, &wire.Txn{ID: 9, Dir: dir, Kind: wire.TxnNormal,
		Ops: createOps(dir, "fresh", mkFileInode(src, 1))})

	reg := obs.NewRegistry()
	rep, err := (&Journal{tr: tr, cfg: Config{Obs: reg}}).recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.NextSeq != 8 {
		t.Fatalf("report: %+v", rep)
	}
	if v := reg.Counter("integrity.repaired").Value(); v != 1 {
		t.Fatalf("integrity.repaired = %d, want 1", v)
	}
	ents, err := tr.LoadDentries(dir)
	if err != nil {
		t.Fatalf("rebuilt dentries unreadable: %v", err)
	}
	if got := names(ents); !got["fresh"] || got["old"] {
		t.Fatalf("dentries after rebuild: %v", ents)
	}
}

// A transient read-side flip — corruption on the wire, not at rest — must
// not truncate the journal: readTxn's confirming re-read sees clean bytes
// and the acknowledged transaction replays.
func TestRecoveryTransientReadFlipDoesNotTruncate(t *testing.T) {
	fs := objstore.NewFaultStore(objstore.NewMemStore())
	tr := prt.New(fs, 64)
	src := types.NewInoSource(500)
	dir := src.Next()
	for seq, name := range []string{"first", "second"} {
		plantTxn(t, fs, dir, uint64(seq), &wire.Txn{ID: uint64(seq + 1), Dir: dir,
			Kind: wire.TxnNormal, Ops: createOps(dir, name, mkFileInode(src, 1))})
	}
	fs.CorruptNextRead(prt.PrefixJournal, 1)

	rep, err := Recover(tr, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.Corrupt != 0 || rep.Truncated != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if got := names(mustDentries(t, tr, dir)); !got["first"] || !got["second"] {
		t.Fatalf("dentries: %v", got)
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want exactly the one armed flip", fs.Injected())
	}
}

// The same rule protects the checkpoint: a transient flip while loading the
// dentry block must not trigger the destructive rebuild path — the
// confirming retry reads clean bytes and checkpoint-only entries survive.
func TestRecoveryTransientCheckpointFlipDoesNotRebuild(t *testing.T) {
	mem := objstore.NewMemStore()
	trPlain := prt.New(mem, 64)
	src := types.NewInoSource(600)
	dir := src.Next()
	checkpointDir(t, trPlain, src, dir, "keep")

	fs := objstore.NewFaultStore(mem)
	tr := prt.New(fs, 64)
	plantTxn(t, mem, dir, 3, &wire.Txn{ID: 5, Dir: dir, Kind: wire.TxnNormal,
		Ops: createOps(dir, "fresh", mkFileInode(src, 1))})
	fs.CorruptNextRead(prt.PrefixDentry, 1)

	reg := obs.NewRegistry()
	rep, err := (&Journal{tr: tr, cfg: Config{Obs: reg}}).recoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if v := reg.Counter("integrity.repaired").Value(); v != 0 {
		t.Fatalf("integrity.repaired = %d after a transient flip, want 0", v)
	}
	if got := names(mustDentries(t, tr, dir)); !got["keep"] || !got["fresh"] {
		t.Fatalf("checkpoint-only entry lost to a transient flip: %v", got)
	}
}

func mustDentries(t *testing.T, tr *prt.Translator, dir types.Ino) []wire.Dentry {
	t.Helper()
	ents, err := tr.LoadDentries(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ents
}
