package journal

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// addOps returns the dentry adds of n files under dir, in name order.
func addOps(src *types.InoSource, n int) []wire.Op {
	ops := make([]wire.Op, n)
	for i := range ops {
		ops[i] = wire.Op{Kind: wire.OpAddDentry, Name: fmt.Sprintf("f%07d", i), Ino: src.Next(), FType: types.TypeRegular}
	}
	return ops
}

// Deleting dentries in any order, mixed with re-adds, must store the block a
// plain sorted rebuild of the survivors would: applyOps is free to reorder
// entries while it works only because the block is sorted before it is saved.
func TestDentryDeletesStoreSortedSurvivors(t *testing.T) {
	store := objstore.NewMemStore()
	tr := prt.New(store, 64)
	src := types.NewInoSource(21)
	dir := src.Next()
	adds := addOps(src, 500)
	if err := ApplyOps(tr, dir, adds); err != nil {
		t.Fatal(err)
	}
	want := map[string]wire.Dentry{}
	for _, op := range adds {
		want[op.Name] = wire.Dentry{Name: op.Name, Ino: op.Ino, Type: op.FType}
	}
	rng := rand.New(rand.NewSource(21))
	var ops []wire.Op
	for _, i := range rng.Perm(len(adds))[:300] {
		name := adds[i].Name
		ops = append(ops, wire.Op{Kind: wire.OpDelDentry, Name: name})
		delete(want, name)
		if i%7 == 0 { // re-create under a new inode, after other deletes moved entries
			ino := src.Next()
			ops = append(ops, wire.Op{Kind: wire.OpAddDentry, Name: name, Ino: ino, FType: types.TypeRegular})
			want[name] = wire.Dentry{Name: name, Ino: ino, Type: types.TypeRegular}
		}
	}
	ops = append(ops, wire.Op{Kind: wire.OpDelDentry, Name: "never-existed"})
	if err := ApplyOps(tr, dir, ops); err != nil {
		t.Fatal(err)
	}
	survivors := make([]wire.Dentry, 0, len(want))
	for _, de := range want {
		survivors = append(survivors, de)
	}
	sort.Slice(survivors, func(a, b int) bool { return survivors[a].Name < survivors[b].Name })
	got, err := store.Get(prt.DentryKey(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wire.EncodeDentries(survivors)) {
		t.Fatal("stored dentry block differs from the sorted survivors' encoding")
	}
}

// BenchmarkCheckpointDelete10k is one checkpoint deleting every entry of a
// 10 000-entry directory (the last phase of mdtest-easy).
func BenchmarkCheckpointDelete10k(b *testing.B) {
	src := types.NewInoSource(22)
	dir := src.Next()
	adds := addOps(src, 10000)
	dels := make([]wire.Op, len(adds))
	for i, op := range adds {
		dels[i] = wire.Op{Kind: wire.OpDelDentry, Name: op.Name}
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := prt.New(objstore.NewMemStore(), 64)
		if err := ApplyOps(tr, dir, adds); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ApplyOps(tr, dir, dels); err != nil {
			b.Fatal(err)
		}
	}
}
