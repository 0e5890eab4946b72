package metatable

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// scrambledStore delays every GET by a hash of its key, so GETs issued
// together complete in an order that has nothing to do with the order they
// were issued in, and fails the GETs of the keys in fail.
type scrambledStore struct {
	objstore.Store
	env  sim.Env
	fail map[string]error

	mu        sync.Mutex
	completed []string // keys in GET completion order
}

func (s *scrambledStore) Get(key string) ([]byte, error) {
	h := fnv.New32a()
	h.Write([]byte(key))
	s.env.Sleep(time.Duration(1+h.Sum32()%97) * time.Microsecond)
	s.mu.Lock()
	s.completed = append(s.completed, key)
	s.mu.Unlock()
	if err := s.fail[key]; err != nil {
		return nil, err
	}
	return s.Store.Get(key)
}

// plantDir writes a directory of n files named f00000… through tr and
// returns its inode number and the children's in dentry (name) order.
func plantDir(t testing.TB, tr *prt.Translator, seed int64, n int) (types.Ino, []types.Ino) {
	t.Helper()
	src := types.NewInoSource(seed)
	tbl := NewEmpty(dirInode(src))
	inos := make([]types.Ino, n)
	for i := range inos {
		f := fileInode(src)
		f.Size = int64(i)
		inos[i] = f.Ino
		if err := tbl.Insert(fmt.Sprintf("f%05d", i), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.FlushTo(tr); err != nil {
		t.Fatal(err)
	}
	return tbl.DirInode().Ino, inos
}

// dump is everything a table writes when flushed to an empty store.
func dump(t *testing.T, tbl *Table) map[string]string {
	t.Helper()
	st := objstore.NewMemStore()
	if err := tbl.FlushTo(prt.New(st, 0)); err != nil {
		t.Fatal(err)
	}
	keys, _ := st.List("")
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		raw, _ := st.Get(k)
		out[k] = string(raw)
	}
	return out
}

func flipByte(t *testing.T, st objstore.Store, key string) {
	t.Helper()
	raw, err := st.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	cp := append([]byte(nil), raw...)
	cp[len(cp)/2] ^= 0x10
	if err := st.Put(key, cp); err != nil {
		t.Fatal(err)
	}
}

// The fanned-out load builds the table the one-by-one load builds, for
// directory sizes on both sides of the inline floor and of a whole round,
// with GETs completing in scrambled order.
func TestLoadWithEqualsSerialLoadWhateverCompletesFirst(t *testing.T) {
	for _, limit := range []int{2, 16} {
		for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 1000} {
			t.Run(fmt.Sprintf("limit=%d/n=%d", limit, n), func(t *testing.T) {
				mem := objstore.NewMemStore()
				dir, inos := plantDir(t, prt.New(mem, 0), int64(100+n), n)
				want, err := Load(prt.New(mem, 0), dir)
				if err != nil {
					t.Fatal(err)
				}
				env := sim.NewVirtEnv()
				env.Run(func() {
					st := &scrambledStore{Store: mem, env: env}
					got, lost, err := LoadWith(env, limit, prt.New(st, 0), dir, false)
					if err != nil || lost != 0 {
						t.Fatalf("LoadWith: lost %d, err %v", lost, err)
					}
					if !reflect.DeepEqual(got.List(), want.List()) {
						t.Fatal("entries differ from the serial load's")
					}
					for _, ino := range inos {
						g, _ := got.Child(ino)
						w, _ := want.Child(ino)
						if g == nil || !reflect.DeepEqual(g, w) {
							t.Fatalf("child %s: %+v, serial load has %+v", ino.Short(), g, w)
						}
					}
					if !reflect.DeepEqual(dump(t, got), dump(t, want)) {
						t.Fatal("FlushTo bytes differ from the serial load's")
					}
					if n >= 2*limit {
						// The premise: completion order is not issue order.
						issued := make([]string, n)
						for i, ino := range inos {
							issued[i] = prt.InodeKey(ino)
						}
						if reflect.DeepEqual(st.completed[len(st.completed)-n:], issued) {
							t.Fatal("GETs completed in issue order: the store did not scramble them")
						}
					}
				})
			})
		}
	}
}

// With failing children the error is the one the serial loop stops at: the
// first in dentry order, though a later one fails sooner. A corrupt child at
// index 3 and an I/O error at index 7 give ErrIntegrity to the strict load
// and EIO to the degraded one (which tolerates the corruption), and the
// degraded load's lost count is the serial count.
func TestLoadWithErrorsAndLostCountsFollowDentryOrder(t *testing.T) {
	const n = 64
	mem := objstore.NewMemStore()
	dir, inos := plantDir(t, prt.New(mem, 0), 7, n)
	flipByte(t, mem, prt.InodeKey(inos[3]))
	eio := fmt.Errorf("injected: %w", types.ErrIO)

	load := func(limit int, degraded bool, fail map[string]error) (tbl *Table, lost int, err error) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			st := &scrambledStore{Store: mem, env: env, fail: fail}
			tbl, lost, err = LoadWith(env, limit, prt.New(st, 0), dir, degraded)
		})
		return tbl, lost, err
	}
	for _, limit := range []int{1, 4, 16} {
		// Two failing children, 40 before 20 in time or not: 20 is named.
		_, _, err := load(limit, true, map[string]error{prt.InodeKey(inos[40]): eio, prt.InodeKey(inos[20]): eio})
		if !errors.Is(err, types.ErrIO) || !strings.Contains(err.Error(), `"f00020"`) {
			t.Fatalf("limit %d: two failing children: %v, want EIO naming f00020", limit, err)
		}
		fail := map[string]error{prt.InodeKey(inos[7]): eio}
		if _, _, err := load(limit, false, fail); !errors.Is(err, types.ErrIntegrity) || !strings.Contains(err.Error(), `"f00003"`) {
			t.Fatalf("limit %d: strict load: %v, want ErrIntegrity at f00003", limit, err)
		}
		if _, _, err := load(limit, true, fail); !errors.Is(err, types.ErrIO) || !strings.Contains(err.Error(), `"f00007"`) {
			t.Fatalf("limit %d: degraded load: %v, want EIO at f00007", limit, err)
		}
		// Corrupt at 3, missing at 9: both dropped and counted, the rest served.
		if err := mem.Delete(prt.InodeKey(inos[9])); err != nil {
			t.Fatal(err)
		}
		tbl, lost, err := load(limit, true, nil)
		if err != nil || lost != 2 || tbl.Len() != n-2 || tbl.Exists("f00003") || tbl.Exists("f00009") {
			t.Fatalf("limit %d: degraded load: lost %d, err %v", limit, lost, err)
		}
		wantTbl, wantLost, err := LoadDegraded(prt.New(mem, 0), dir)
		if err != nil || wantLost != lost || !reflect.DeepEqual(tbl.List(), wantTbl.List()) {
			t.Fatalf("limit %d: serial LoadDegraded disagrees: lost %d, err %v", limit, wantLost, err)
		}
		// Put the missing child back for the next limit.
		if err := prt.New(mem, 0).SaveInode(&types.Inode{Ino: inos[9], Type: types.TypeRegular, Mode: 0644, Nlink: 1, Size: 9}); err != nil {
			t.Fatal(err)
		}
	}
}

var loadSink *Table

// BenchmarkLoad1k is the serial entry point (what tools and the bench probes
// call) on a 1,000-entry directory in a MemStore.
func BenchmarkLoad1k(b *testing.B) {
	tr := prt.New(objstore.NewMemStore(), 0)
	dir, _ := plantDir(b, tr, 11, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := Load(tr, dir)
		if err != nil {
			b.Fatal(err)
		}
		loadSink = tbl
	}
}
