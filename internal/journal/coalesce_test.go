package journal

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Log keeps one inode op per inode in the running transaction. These tests
// hold that nothing but a record's size can tell: the checkpointed store, the
// replayed store and the dentry ops of every record are what they would be
// had every op been kept as logged.

// recordTee keeps a copy of every journal record as it was PUT: what the
// store would still hold had the client crashed before any checkpoint.
type recordTee struct {
	objstore.Store
	mu      sync.Mutex
	records map[string][]byte
}

func (s *recordTee) Put(key string, data []byte) error {
	if strings.HasPrefix(key, prt.PrefixJournal) {
		s.mu.Lock()
		s.records[key] = bytes.Clone(data)
		s.mu.Unlock()
	}
	return s.Store.Put(key, data)
}

// coalesceRun is one seeded script, run three ways.
type coalesceRun struct {
	dir     types.Ino
	live    objstore.Store    // logged into a Journal, sealed at random points, flushed
	plain   objstore.Store    // the same ops, none dropped, through ApplyOps record by record
	crashed objstore.Store    // the journal records and nothing of their checkpoints
	records map[string][]byte // key -> record as PUT
	logged  [][]wire.Op       // per sealed record, the ops as Log was handed them
}

// runCoalesceScript logs a random script of create / setattr / unlink /
// same-directory rename / mkdir+rmdir over two dozen names, with the ops core
// logs for each, every op owning its inode copy as core's do.
func runCoalesceScript(t *testing.T, seed int64) *coalesceRun {
	t.Helper()
	env := sim.NewRealEnv()
	defer env.Shutdown()
	tee := &recordTee{Store: objstore.NewMemStore(), records: map[string][]byte{}}
	run := &coalesceRun{live: tee, plain: objstore.NewMemStore(), crashed: objstore.NewMemStore(), records: tee.records}
	trs := []*prt.Translator{prt.New(run.live, 64), prt.New(run.plain, 64), prt.New(run.crashed, 64)}
	// Only the script seals: no commit tick inside the test's lifetime.
	j := New(env, trs[0], Config{CommitInterval: time.Hour, CommitWorkers: 2, CheckpointWorkers: 2})
	defer j.Close()

	rng := rand.New(rand.NewSource(seed))
	src := types.NewInoSource(seed)
	dirNode := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Nlink: 2}
	run.dir = dirNode.Ino
	files := map[string]*types.Inode{}
	var pending []wire.Op
	var clock time.Duration
	touchDir := func() wire.Op {
		clock += time.Millisecond
		dirNode.Mtime, dirNode.Ctime = clock, clock
		return wire.Op{Kind: wire.OpSetInode, Inode: dirNode.Clone()}
	}
	// outside does what the data path and mkdir do beside the journal, to
	// every store alike.
	outside := func(fn func(tr *prt.Translator) error) {
		for _, tr := range trs {
			if err := fn(tr); err != nil {
				t.Fatal(err)
			}
		}
	}
	create := func(name string, typ types.FileType) []wire.Op {
		child := &types.Inode{Ino: src.Next(), Type: typ, Mode: 0644, Nlink: 1, Mtime: clock}
		if typ == types.TypeDir {
			child.Nlink = 2
			outside(func(tr *prt.Translator) error { return tr.SaveInode(child) })
		} else if child.Size = int64(rng.Intn(3) * 50); child.Size > 0 {
			outside(func(tr *prt.Translator) error { return tr.PutChunk(child.Ino, 0, []byte(name)) })
		}
		files[name] = child
		return []wire.Op{
			{Kind: wire.OpSetInode, Inode: child.Clone()},
			{Kind: wire.OpAddDentry, Name: name, Ino: child.Ino, FType: child.Type},
			touchDir(),
		}
	}
	unlink := func(name string) []wire.Op {
		victim := files[name]
		delete(files, name)
		return []wire.Op{
			{Kind: wire.OpDelDentry, Name: name},
			{Kind: wire.OpDelInode, Ino: victim.Ino, Size: victim.Size, FType: victim.Type},
			touchDir(),
		}
	}
	seal := func() {
		if err := j.Barrier(run.dir); err != nil {
			t.Fatal(err)
		}
		if len(pending) > 0 {
			if err := ApplyOps(trs[1], run.dir, pending); err != nil {
				t.Fatal(err)
			}
			run.logged = append(run.logged, pending)
			pending = nil
		}
	}
	for step := 0; step < 300; step++ {
		name := fmt.Sprintf("n%02d", rng.Intn(24))
		node := files[name]
		var ops []wire.Op
		switch op := rng.Intn(10); {
		case node == nil && op < 8:
			ops = create(name, types.TypeRegular)
		case node == nil:
			// mkdir, and its rmdir a few steps on at the latest
			ops = create(name, types.TypeDir)
		case node.IsDir() || op < 3:
			ops = unlink(name)
		case op < 7: // setattr: the size a close publishes
			clock += time.Millisecond
			node.Size, node.Mtime = int64(rng.Intn(200)), clock
			ops = []wire.Op{{Kind: wire.OpSetInode, Inode: node.Clone()}}
		default: // rename inside the directory, over whatever is there
			dst := fmt.Sprintf("n%02d", rng.Intn(24))
			if dst == name || (files[dst] != nil && files[dst].IsDir()) {
				continue
			}
			ops = []wire.Op{{Kind: wire.OpDelDentry, Name: name}}
			if existing := files[dst]; existing != nil {
				ops = append(ops,
					wire.Op{Kind: wire.OpDelDentry, Name: dst},
					wire.Op{Kind: wire.OpDelInode, Ino: existing.Ino, Size: existing.Size})
			}
			delete(files, name)
			files[dst] = node
			ops = append(ops, wire.Op{Kind: wire.OpAddDentry, Name: dst, Ino: node.Ino, FType: node.Type}, touchDir())
		}
		j.Log(context.Background(), run.dir, ops)
		pending = append(pending, ops...)
		if rng.Intn(12) == 0 {
			seal() // duplicates of the directory's inode now straddle two records
		}
	}
	seal()
	if err := j.Flush(run.dir); err != nil {
		t.Fatal(err)
	}
	for key, rec := range run.records {
		if err := run.crashed.Put(key, rec); err != nil {
			t.Fatal(err)
		}
	}
	return run
}

var coalesceSeeds = []int64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}

func TestCoalescedCheckpointMatchesUncoalesced(t *testing.T) {
	for _, seed := range coalesceSeeds {
		run := runCoalesceScript(t, seed)
		got, want := dumpStore(t, run.live), dumpStore(t, run.plain)
		if len(want) < 10 {
			t.Fatalf("seed %d: the script left only %d objects", seed, len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the journaled store (%d objects) differs from the ops applied as logged (%d objects)",
				seed, len(got), len(want))
		}
	}
}

func TestSealedRecordHoldsOneInodeOpPerInode(t *testing.T) {
	dentryOps := func(ops []wire.Op) []wire.Op {
		var out []wire.Op
		for _, op := range ops {
			if _, inode := inodeOf(&op); !inode {
				out = append(out, op)
			}
		}
		return out
	}
	absorbed := 0
	for _, seed := range coalesceSeeds {
		run := runCoalesceScript(t, seed)
		keys := make([]string, 0, len(run.records))
		for key := range run.records {
			keys = append(keys, key)
		}
		sort.Strings(keys) // fixed-width sequence: key order is seal order
		if len(keys) != len(run.logged) {
			t.Fatalf("seed %d: %d records PUT for %d seals", seed, len(keys), len(run.logged))
		}
		for i, key := range keys {
			txn, err := wire.DecodeTxn(run.records[key])
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, key, err)
			}
			last := map[types.Ino]wire.Op{}
			for _, op := range run.logged[i] {
				if ino, ok := inodeOf(&op); ok {
					last[ino] = op
				}
			}
			seen := map[types.Ino]bool{}
			for _, op := range txn.Ops {
				ino, ok := inodeOf(&op)
				if !ok {
					continue
				}
				if seen[ino] {
					t.Fatalf("seed %d: %s holds two inode ops for %s", seed, key, ino.Short())
				}
				seen[ino] = true
				if !reflect.DeepEqual(op, last[ino]) {
					t.Fatalf("seed %d: %s keeps %+v for %s, the last logged was %+v", seed, key, op, ino.Short(), last[ino])
				}
			}
			if len(seen) != len(last) {
				t.Fatalf("seed %d: %s holds inode ops for %d inodes, %d were logged", seed, key, len(seen), len(last))
			}
			if got, want := dentryOps(txn.Ops), dentryOps(run.logged[i]); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s: dentry ops are not the logged ones in order", seed, key)
			}
			absorbed += len(run.logged[i]) - len(txn.Ops)
		}
	}
	if absorbed == 0 {
		t.Fatal("no script logged one inode twice in a record: the test saw nothing")
	}
}

// A crash after the journal PUTs and before any checkpoint: replaying the
// coalesced records builds the store the uncoalesced ops build.
func TestRecoverReplaysCoalescedRecords(t *testing.T) {
	for _, seed := range coalesceSeeds {
		run := runCoalesceScript(t, seed)
		rep, err := Recover(prt.New(run.crashed, 64), run.dir)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Replayed != len(run.logged) {
			t.Fatalf("seed %d: replayed %d of %d records", seed, rep.Replayed, len(run.logged))
		}
		if got, want := dumpStore(t, run.crashed), dumpStore(t, run.plain); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the replayed store (%d objects) differs from the ops applied as logged (%d objects)",
				seed, len(got), len(want))
		}
	}
}

func TestCreateThenUnlinkInOneTxnLeavesNothing(t *testing.T) {
	_, tr, j, stop := testSetup(t)
	defer stop()
	src := types.NewInoSource(31)
	dirNode := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Nlink: 2}
	dir := dirNode.Ino
	child := mkFileInode(src, 10)
	if err := tr.PutChunk(child.Ino, 0, []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j.Log(ctx, dir, append(createOps(dir, "gone", child), wire.Op{Kind: wire.OpSetInode, Inode: dirNode.Clone()}))
	j.Log(ctx, dir, []wire.Op{
		{Kind: wire.OpDelDentry, Name: "gone"},
		{Kind: wire.OpDelInode, Ino: child.Ino, Size: child.Size, FType: child.Type},
		{Kind: wire.OpSetInode, Inode: dirNode.Clone()},
	})
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.LoadInode(child.Ino); err == nil {
		t.Fatal("the unlinked file's inode object exists")
	}
	if _, err := tr.GetChunk(child.Ino, 0); err == nil {
		t.Fatal("the unlinked file's data chunk exists")
	}
	if ents := mustDentries(t, tr, dir); len(ents) != 0 {
		t.Fatalf("dentries left: %v", ents)
	}
	if _, err := tr.LoadInode(dir); err != nil {
		t.Fatalf("the directory's inode: %v", err)
	}
}

// A sealed record belongs to the put worker, which encodes it without the
// directory lock: a Log that replaced an inode op inside it would race the
// encoder (run under -race) and could change a record already on the wire.
func TestLogNeverWritesIntoSealedRecord(t *testing.T) {
	_, tr, j, stop := testSetup(t)
	defer stop()
	src := types.NewInoSource(32)
	dirNode := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Nlink: 2}
	dir := dirNode.Ino
	done := make(chan struct{})
	var barriers sync.WaitGroup
	barriers.Add(1)
	go func() {
		defer barriers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := j.Barrier(dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	const logs = 2000
	for i := 1; i <= logs; i++ {
		dirNode.Mtime = time.Duration(i)
		j.Log(context.Background(), dir, []wire.Op{{Kind: wire.OpSetInode, Inode: dirNode.Clone()}})
	}
	close(done)
	barriers.Wait()
	if err := j.Flush(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := tr.LoadInode(dir); err != nil || got.Mtime != logs {
		t.Fatalf("the directory's inode after the last record: %+v, %v", got, err)
	}
}

// journal.buffer.ops counts what the running transaction holds, so a seal
// brings it back to zero; journal.ops counts ops as logged and
// journal.ops.coalesced the ones a later op of the same inode replaced.
func TestBufferGaugeCountsWhatRunningHolds(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	reg := obs.NewRegistry()
	j := New(env, prt.New(objstore.NewMemStore(), 64), Config{CommitInterval: time.Hour, Obs: reg})
	defer j.Close()
	src := types.NewInoSource(33)
	dirNode := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Nlink: 2}
	dir := dirNode.Ino
	const creates = 50
	for i := 0; i < creates; i++ {
		ops := append(createOps(dir, fmt.Sprintf("f%02d", i), mkFileInode(src, 0)), wire.Op{Kind: wire.OpSetInode, Inode: dirNode.Clone()})
		j.Log(context.Background(), dir, ops)
	}
	value := func(name string) int64 { return reg.Counter(name).Value() }
	if got := reg.Gauge("journal.buffer.ops").Value(); got != 2*creates+1 {
		t.Fatalf("journal.buffer.ops = %d with %d ops running", got, 2*creates+1)
	}
	if ops, co := value("journal.ops"), value("journal.ops.coalesced"); ops != 3*creates || co != creates-1 {
		t.Fatalf("journal.ops = %d, journal.ops.coalesced = %d; want %d and %d", ops, co, 3*creates, creates-1)
	}
	if err := j.Barrier(dir); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("journal.buffer.ops").Value(); got != 0 {
		t.Fatalf("journal.buffer.ops = %d after the seal: the gauge drifts", got)
	}
}

// ckptGate parks a checkpoint at its first store access, the GET of the
// directory's dentry block, while shut is write-locked.
type ckptGate struct {
	objstore.Store
	shut sync.RWMutex
}

func (g *ckptGate) Get(key string) ([]byte, error) {
	if strings.HasPrefix(key, prt.PrefixDentry) {
		g.shut.RLock()
		g.shut.RUnlock()
	}
	return g.Store.Get(key)
}

// BenchmarkLogCreates is a directory's share of an mdtest create phase as the
// journal sees it: 2,500 creates logged as core logs them, then the barrier
// that seals, encodes and PUTs the record. The record's checkpoint is held
// back and drained with the clock stopped, so that an iteration allocates
// the same every time.
func BenchmarkLogCreates(b *testing.B) {
	const creates = 2500
	env := sim.NewRealEnv()
	defer env.Shutdown()
	gate := &ckptGate{Store: objstore.NewMemStore()}
	j := New(env, prt.New(gate, 2<<20), Config{CommitInterval: time.Hour})
	defer j.Close()
	src := types.NewInoSource(34)
	dirNode := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Nlink: 2}
	dir := dirNode.Ino
	names := make([]string, creates)
	children := make([]*types.Inode, creates)
	for i := range names {
		names[i] = fmt.Sprintf("f%07d", i)
		children[i] = mkFileInode(src, 0)
	}
	ctx := context.Background()
	b.ReportAllocs()
	gate.shut.Lock()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for i, child := range children {
			j.Log(ctx, dir, []wire.Op{
				{Kind: wire.OpSetInode, Inode: child},
				{Kind: wire.OpAddDentry, Name: names[i], Ino: child.Ino, FType: child.Type},
				{Kind: wire.OpSetInode, Inode: dirNode},
			})
		}
		if err := j.Barrier(dir); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		gate.shut.Unlock()
		if err := j.Flush(dir); err != nil {
			b.Fatal(err)
		}
		gate.shut.Lock()
		b.StartTimer()
	}
	b.StopTimer()
	gate.shut.Unlock()
}
