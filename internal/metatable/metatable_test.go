package metatable

import (
	"errors"
	"testing"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/types"
)

func dirInode(src *types.InoSource) *types.Inode {
	return &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Nlink: 2}
}

func fileInode(src *types.InoSource) *types.Inode {
	return &types.Inode{Ino: src.Next(), Type: types.TypeRegular, Mode: 0644, Nlink: 1}
}

func TestLoadRoundTrip(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 0)
	src := types.NewInoSource(1)
	dir := dirInode(src)
	tbl := NewEmpty(dir)
	f1, f2 := fileInode(src), fileInode(src)
	if err := tbl.Insert("a.txt", f1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("b.txt", f2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.FlushTo(tr); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(tr, dir.Ino)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 2 {
		t.Fatalf("Len = %d", loaded.Len())
	}
	de, child, err := loaded.Lookup("a.txt")
	if err != nil || de.Ino != f1.Ino || child.Mode != 0644 {
		t.Fatalf("Lookup: %+v %+v %v", de, child, err)
	}
	if got := loaded.DirInode(); got.Ino != dir.Ino || !got.IsDir() {
		t.Fatalf("DirInode: %+v", got)
	}
}

func TestLoadRejectsNonDirectory(t *testing.T) {
	tr := prt.New(objstore.NewMemStore(), 0)
	src := types.NewInoSource(2)
	f := fileInode(src)
	if err := tr.SaveInode(f); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(tr, f.Ino); !errors.Is(err, types.ErrNotDir) {
		t.Fatalf("want ENOTDIR, got %v", err)
	}
	if _, err := Load(tr, src.Next()); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("want ENOENT, got %v", err)
	}
}

func TestInsertRemoveSemantics(t *testing.T) {
	src := types.NewInoSource(3)
	tbl := NewEmpty(dirInode(src))
	f := fileInode(src)
	if err := tbl.Insert("f", f); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert("f", fileInode(src)); !errors.Is(err, types.ErrExist) {
		t.Fatalf("duplicate insert: %v", err)
	}
	if !tbl.Exists("f") {
		t.Fatal("Exists = false")
	}
	removed, err := tbl.Remove("f")
	if err != nil || removed.Ino != f.Ino {
		t.Fatalf("Remove: %+v, %v", removed, err)
	}
	if _, err := tbl.Remove("f"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
	if _, _, err := tbl.Lookup("f"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("lookup removed: %v", err)
	}
}

func TestUpdateChildAndIsolation(t *testing.T) {
	src := types.NewInoSource(4)
	tbl := NewEmpty(dirInode(src))
	f := fileInode(src)
	if err := tbl.Insert("f", f); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's inode after Insert must not affect the table.
	f.Size = 999
	_, child, _ := tbl.Lookup("f")
	if child.Size != 0 {
		t.Fatal("Insert aliased the caller's inode")
	}
	// Nor must mutating a Lookup result.
	child.Size = 777
	_, again, _ := tbl.Lookup("f")
	if again.Size != 0 {
		t.Fatal("Lookup returned an aliased inode")
	}
	// UpdateChild is the way to change it.
	child.Size = 123
	if err := tbl.UpdateChild(child); err != nil {
		t.Fatal(err)
	}
	_, final, _ := tbl.Lookup("f")
	if final.Size != 123 {
		t.Fatalf("Size = %d", final.Size)
	}
	// UpdateChild on an unknown inode fails.
	ghost := fileInode(src)
	if err := tbl.UpdateChild(ghost); !errors.Is(err, types.ErrStale) {
		t.Fatalf("ghost update: %v", err)
	}
}

func TestListSorted(t *testing.T) {
	src := types.NewInoSource(5)
	tbl := NewEmpty(dirInode(src))
	for _, name := range []string{"zebra", "alpha", "monkey"} {
		if err := tbl.Insert(name, fileInode(src)); err != nil {
			t.Fatal(err)
		}
	}
	list := tbl.List()
	if len(list) != 3 || list[0].Name != "alpha" || list[1].Name != "monkey" || list[2].Name != "zebra" {
		t.Fatalf("List = %v", list)
	}
}

func TestChildByIno(t *testing.T) {
	src := types.NewInoSource(6)
	tbl := NewEmpty(dirInode(src))
	f := fileInode(src)
	if err := tbl.Insert("f", f); err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Child(f.Ino)
	if err != nil || got.Ino != f.Ino {
		t.Fatalf("Child: %+v %v", got, err)
	}
	if _, err := tbl.Child(src.Next()); !errors.Is(err, types.ErrNotExist) {
		t.Fatal("Child found a ghost")
	}
}
