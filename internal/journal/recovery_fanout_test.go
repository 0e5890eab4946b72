package journal

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// scrambledStore delays every GET by a hash of its key, so GETs issued
// together complete in an order unrelated to the order they were issued in.
// It logs the journal GETs in completion order and the journal DELETEs in
// call order.
type scrambledStore struct {
	objstore.Store
	env sim.Env

	mu      sync.Mutex
	fetched []string
	deleted []string
}

func (s *scrambledStore) Get(key string) ([]byte, error) {
	h := fnv.New32a()
	h.Write([]byte(key))
	s.env.Sleep(time.Duration(1+h.Sum32()%97) * time.Microsecond)
	if strings.HasPrefix(key, prt.PrefixJournal) {
		s.mu.Lock()
		s.fetched = append(s.fetched, key)
		s.mu.Unlock()
	}
	return s.Store.Get(key)
}

func (s *scrambledStore) Delete(key string) error {
	if strings.HasPrefix(key, prt.PrefixJournal) {
		s.mu.Lock()
		s.deleted = append(s.deleted, key)
		s.mu.Unlock()
	}
	return s.Store.Delete(key)
}

// plantOrderedJournal writes n records whose replay order shows in the
// result: record i creates its own file, sets the one shared inode's size to
// i, and adds (odd i) or removes (even i) the dentry "flip".
func plantOrderedJournal(t *testing.T, st objstore.Store, seed int64, n int) (dir types.Ino, shared *types.Inode) {
	t.Helper()
	src := types.NewInoSource(seed)
	dir = src.Next()
	shared = mkFileInode(src, 0)
	for i := 0; i < n; i++ {
		at := *shared
		at.Size = int64(i)
		ops := createOps(dir, fmt.Sprintf("f%03d", i), mkFileInode(src, 1))
		ops = append(ops, wire.Op{Kind: wire.OpSetInode, Inode: &at})
		if i%2 == 1 {
			ops = append(ops, wire.Op{Kind: wire.OpAddDentry, Name: "flip", Ino: shared.Ino, FType: shared.Type})
		} else {
			ops = append(ops, wire.Op{Kind: wire.OpDelDentry, Name: "flip"})
		}
		plantTxn(t, st, dir, uint64(i), &wire.Txn{ID: uint64(i + 1), Dir: dir, Kind: wire.TxnNormal, Ops: ops})
	}
	return dir, shared
}

func copyStore(t *testing.T, from objstore.Store) *objstore.MemStore {
	t.Helper()
	to := objstore.NewMemStore()
	for k, v := range dumpStore(t, from) {
		if err := to.Put(k, []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

func dumpStore(t *testing.T, st objstore.Store) map[string]string {
	t.Helper()
	keys, err := st.List("")
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		raw, err := st.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		out[k] = string(raw)
	}
	return out
}

// recoverFanned runs the journal's own Recover (the takeover form) on a
// virtual clock over a store that scrambles GET completion order.
func recoverFanned(t *testing.T, mem objstore.Store, dir types.Ino, fanout int) (Report, *scrambledStore) {
	t.Helper()
	var rep Report
	var st *scrambledStore
	env := sim.NewVirtEnv()
	env.Run(func() {
		st = &scrambledStore{Store: mem, env: env}
		j := New(env, prt.New(st, 64), Config{CheckpointFanout: fanout, CommitWorkers: 1, CheckpointWorkers: 1})
		defer j.Close()
		var err error
		if rep, err = j.Recover(dir); err != nil {
			t.Fatal(err)
		}
	})
	return rep, st
}

// Records are fetched concurrently and complete out of order; they replay
// strictly in sequence order, and the outcome is the serial Recover's: same
// report, same store, byte for byte.
func TestRecoverFetchesOutOfOrderReplaysInOrder(t *testing.T) {
	const n = 41
	for _, fanout := range []int{1, 2, 16} {
		mem := objstore.NewMemStore()
		dir, shared := plantOrderedJournal(t, mem, 900, n)
		serial := copyStore(t, mem)
		want, err := Recover(prt.New(serial, 64), dir)
		if err != nil {
			t.Fatal(err)
		}

		rep, st := recoverFanned(t, mem, dir, fanout)
		if rep != want || rep.Replayed != n || rep.NextSeq != n {
			t.Fatalf("fanout %d: report %+v, serial recovery reports %+v", fanout, rep, want)
		}
		if !reflect.DeepEqual(dumpStore(t, mem), dumpStore(t, serial)) {
			t.Fatalf("fanout %d: store differs from the serial recovery's", fanout)
		}
		tr := prt.New(mem, 64)
		if got, err := tr.LoadInode(shared.Ino); err != nil || got.Size != n-1 {
			t.Fatalf("fanout %d: shared inode %+v, %v: the last record must win", fanout, got, err)
		}
		if names(mustDentries(t, tr, dir))["flip"] != ((n-1)%2 == 1) {
			t.Fatalf("fanout %d: dentry flip is not in the state the last record leaves it in", fanout)
		}
		// Each record is invalidated right after it is replayed: the deletes
		// are the replay order.
		if len(st.deleted) != n || !sort.StringsAreSorted(st.deleted) {
			t.Fatalf("fanout %d: records invalidated out of sequence order: %v", fanout, st.deleted)
		}
		if fanout > 1 && sort.StringsAreSorted(st.fetched) {
			t.Fatalf("fanout %d: GETs completed in issue order: the store did not scramble them", fanout)
		}
	}
}

// A record corrupt at rest at sequence k cuts the journal there: k records
// replay, k and everything after it is discarded unreplayed — although the
// later records were fetched, and verified, before the cut was known.
func TestRecoverTruncatesAtCorruptRecordThoughLaterOnesWereFetched(t *testing.T) {
	const n, k = 41, 10
	mem := objstore.NewMemStore()
	dir, _ := plantOrderedJournal(t, mem, 901, n)
	flipStoredByte(t, mem, prt.JournalKey(dir, k))
	serial := copyStore(t, mem)
	want, err := Recover(prt.New(serial, 64), dir)
	if err != nil {
		t.Fatal(err)
	}

	rep, st := recoverFanned(t, mem, dir, 16)
	if rep != want || rep.Replayed != k || rep.Corrupt != 1 || rep.Truncated != n-k || rep.NextSeq != n {
		t.Fatalf("report %+v, serial recovery reports %+v", rep, want)
	}
	if !reflect.DeepEqual(dumpStore(t, mem), dumpStore(t, serial)) {
		t.Fatal("store differs from the serial recovery's")
	}
	got := names(mustDentries(t, prt.New(mem, 64), dir))
	if !got[fmt.Sprintf("f%03d", k-1)] || got[fmt.Sprintf("f%03d", k)] || got[fmt.Sprintf("f%03d", n-1)] {
		t.Fatalf("dentries after the cut at %d: %v", k, got)
	}
	// Every record was fetched (the corrupt one twice: the confirming
	// re-read), and the journal is empty afterwards.
	if len(st.fetched) != n+1 {
		t.Fatalf("%d journal GETs, want %d", len(st.fetched), n+1)
	}
	if keys, _ := mem.List(prt.JournalPrefix(dir)); len(keys) != 0 {
		t.Fatalf("journal not emptied: %v", keys)
	}
}

// failOnce fails exactly one Get, the first of key, with err.
type failOnce struct {
	objstore.Store
	key   string
	err   error
	fired atomic.Bool
}

func (s *failOnce) Get(key string) ([]byte, error) {
	if key == s.key && s.fired.CompareAndSwap(false, true) {
		return nil, s.err
	}
	return s.Store.Get(key)
}

// A store fault while scanning the coordinator's journal for a prepared
// rename's decision is not "no decision": presuming abort there would undo a
// committed rename on this side only. Recovery fails and leaves every record
// in place, and the next attempt resolves the transaction.
func TestRecoverFailsWhenDecisionScanHitsStoreFault(t *testing.T) {
	mem := objstore.NewMemStore()
	src := types.NewInoSource(910)
	part, coord := src.Next(), src.Next()
	const txid = 77
	plantTxn(t, mem, part, 0, &wire.Txn{ID: txid, Dir: part, Kind: wire.TxnPrepare, Peer: coord,
		Ops: createOps(part, "renamed", mkFileInode(src, 1))})
	plantTxn(t, mem, coord, 0, &wire.Txn{ID: 5, Dir: coord, Kind: wire.TxnNormal,
		Ops: createOps(coord, "bystander", mkFileInode(src, 1))})
	plantTxn(t, mem, coord, 1, &wire.Txn{ID: txid, Dir: coord, Kind: wire.TxnCommit, Peer: part})
	before := dumpStore(t, mem)

	st := &failOnce{Store: mem, key: prt.JournalKey(coord, 1), err: fmt.Errorf("injected: %w", types.ErrIO)}
	tr := prt.New(st, 64)
	rep, err := Recover(tr, part)
	if !errors.Is(err, types.ErrIO) {
		t.Fatalf("Recover = %+v, %v; want the store's EIO", rep, err)
	}
	if !st.fired.Load() {
		t.Fatal("the fault was never injected")
	}
	if !reflect.DeepEqual(dumpStore(t, mem), before) {
		t.Fatal("a failed recovery changed the store")
	}
	rep, err = Recover(tr, part)
	if err != nil || rep.Committed2PC != 1 || rep.Aborted2PC != 0 {
		t.Fatalf("second attempt: %+v, %v; want the rename committed", rep, err)
	}
	if !names(mustDentries(t, tr, part))["renamed"] {
		t.Fatal("committed rename not applied on the participant")
	}
}

// The mirror image on the coordinator's side: a store fault while checking
// whether the participant still holds its prepare is not "no prepare".
// Deleting the decision there would flip the participant's committed rename
// into a presumed abort.
func TestRecoverFailsWhenPrepareScanHitsStoreFault(t *testing.T) {
	mem := objstore.NewMemStore()
	src := types.NewInoSource(911)
	part, coord := src.Next(), src.Next()
	const txid = 78
	plantTxn(t, mem, part, 0, &wire.Txn{ID: txid, Dir: part, Kind: wire.TxnPrepare, Peer: coord,
		Ops: createOps(part, "renamed", mkFileInode(src, 1))})
	plantTxn(t, mem, coord, 0, &wire.Txn{ID: txid, Dir: coord, Kind: wire.TxnCommit, Peer: part})
	before := dumpStore(t, mem)

	st := &failOnce{Store: mem, key: prt.JournalKey(part, 0), err: fmt.Errorf("injected: %w", types.ErrIO)}
	tr := prt.New(st, 64)
	rep, err := Recover(tr, coord)
	if !errors.Is(err, types.ErrIO) {
		t.Fatalf("Recover = %+v, %v; want the store's EIO", rep, err)
	}
	if !st.fired.Load() {
		t.Fatal("the fault was never injected")
	}
	if !reflect.DeepEqual(dumpStore(t, mem), before) {
		t.Fatal("a failed recovery changed the store")
	}
	// The next attempt sees the prepare and retains the decision for it.
	if _, err := Recover(tr, coord); err != nil {
		t.Fatal(err)
	}
	if keys, _ := mem.List(prt.JournalPrefix(coord)); len(keys) != 1 {
		t.Fatalf("decision record not retained while the prepare is outstanding: %v", keys)
	}
	if rep, err := Recover(tr, part); err != nil || rep.Committed2PC != 1 {
		t.Fatalf("participant recovery: %+v, %v; want the rename committed", rep, err)
	}
}
