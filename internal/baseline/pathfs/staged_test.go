package pathfs

import (
	"context"
	"strings"
	"testing"

	"arkfs/internal/fsapi"
	"arkfs/internal/fsapi/fstest"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// newMount mounts p on a fresh MemStore under RealEnv, charging no FUSE
// overhead and, for S3FS, no real disk time.
func newMount(t *testing.T, p Policy) (*Mount, *objstore.MemStore) {
	t.Helper()
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	store := objstore.NewMemStore()
	if p.diskBW > 0 {
		p.diskBW = 1 << 40
	}
	return New(env, store, p, 0), store
}

func TestS3FSConformance(t *testing.T) {
	m, _ := newMount(t, S3FS)
	fstest.Run(t, m, fstest.LevelObject)
}

func TestPathAsKeyLayout(t *testing.T) {
	for _, p := range []Policy{S3FS, Goofys} {
		t.Run(p.name, func(t *testing.T) {
			m, store := newMount(t, p)
			if err := m.Mkdir(context.Background(), "/photos", 0777); err != nil {
				t.Fatal(err)
			}
			f, err := fsapi.Create(context.Background(), m, "/photos/cat.jpg", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("jpeg")); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// The object key is the full path.
			if _, err := store.Get("photos/cat.jpg"); err != nil {
				t.Fatalf("object not stored under path key: %v", err)
			}
		})
	}
}

func TestDirectoryRenameCopiesEveryObject(t *testing.T) {
	m, store := newMount(t, S3FS)
	if err := m.Mkdir(context.Background(), "/old", 0777); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		f, err := fsapi.Create(context.Background(), m, "/old/"+name, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(name)); err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	if err := m.Rename(context.Background(), "/old", "/new"); err != nil {
		t.Fatal(err)
	}
	keys, _ := store.List("")
	for _, k := range keys {
		if strings.HasPrefix(k, "old/") || k == "old" {
			t.Fatalf("source object %q survived rename", k)
		}
	}
	got, err := store.Get("new/b")
	if err != nil || string(got) != "b" {
		t.Fatalf("moved object: %q, %v", got, err)
	}
	st, err := m.Stat(context.Background(), "/new/c")
	if err != nil || st.Size != 1 {
		t.Fatalf("stat after dir rename: %+v, %v", st, err)
	}
}

func TestWholeObjectRewriteOnPartialWrite(t *testing.T) {
	for _, p := range []Policy{S3FS, Goofys} {
		t.Run(p.name, func(t *testing.T) {
			m, store := newMount(t, p)
			f, err := fsapi.Create(context.Background(), m, "/big", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(make([]byte, 10000)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			// Patch 1 byte in the middle: the stored object must still be complete
			// (10000 bytes), proving a full-object rewrite.
			g, err := m.Open(context.Background(), "/big", types.OWronly, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.WriteAt([]byte{0xFF}, 5000); err != nil {
				t.Fatal(err)
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := store.Get("big")
			if err != nil || len(data) != 10000 || data[5000] != 0xFF {
				t.Fatalf("whole-object rewrite broken: len=%d err=%v", len(data), err)
			}
		})
	}
}

func TestImplicitDirectories(t *testing.T) {
	for _, p := range []Policy{S3FS, Goofys} {
		t.Run(p.name, func(t *testing.T) {
			m, _ := newMount(t, p)
			if err := m.Mkdir(context.Background(), "/x", 0777); err != nil {
				t.Fatal(err)
			}
			if err := m.Mkdir(context.Background(), "/x/y", 0777); err != nil {
				t.Fatal(err)
			}
			f, _ := fsapi.Create(context.Background(), m, "/x/y/z", 0644)
			_ = f.Close()
			// /x/y is a directory by marker; /x also by marker; stat both.
			for _, p := range []string{"/x", "/x/y"} {
				st, err := m.Stat(context.Background(), p)
				if err != nil || st.Type != types.TypeDir {
					t.Fatalf("stat %s: %+v, %v", p, st, err)
				}
			}
			ents, err := m.Readdir(context.Background(), "/x")
			if err != nil || len(ents) != 1 || ents[0].Name != "y" || ents[0].Type != types.TypeDir {
				t.Fatalf("readdir /x: %v, %v", ents, err)
			}
		})
	}
}
