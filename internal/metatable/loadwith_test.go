package metatable

import (
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// scrambledStore delays every GET by a hash of its key, so GETs issued
// together complete in an order that has nothing to do with the order they
// were issued in (and a leader's load goes behind it, not inline). It fails
// the GETs of the keys in fail, and holds the GET of a key in hold until that
// channel is closed.
type scrambledStore struct {
	objstore.Store
	env  sim.Env
	fail map[string]error
	hold map[string]*sim.Chan[struct{}]

	mu        sync.Mutex
	started   []string // keys in GET issue order
	completed []string // keys in GET completion order
}

func (s *scrambledStore) Get(key string) ([]byte, error) {
	s.mu.Lock()
	s.started = append(s.started, key)
	s.mu.Unlock()
	if h := s.hold[key]; h != nil {
		h.Recv()
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	s.env.Sleep(time.Duration(20+h.Sum32()%97) * time.Microsecond) // above inlineGet
	s.mu.Lock()
	s.completed = append(s.completed, key)
	s.mu.Unlock()
	if err := s.fail[key]; err != nil {
		return nil, err
	}
	return s.Store.Get(key)
}

// gets returns how many GETs of key were issued.
func (s *scrambledStore) gets(key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, k := range s.started {
		if k == key {
			n++
		}
	}
	return n
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
		if err := tbl.Insert(name(i), f); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.FlushTo(tr); err != nil {
		t.Fatal(err)
	}
	return tbl.DirInode().Ino, inos
}

func name(i int) string { return fmt.Sprintf("f%05d", i) }

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

// holdsEveryChild reports whether every dentry's child is in memory.
func holdsEveryChild(tbl *Table) bool {
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for _, de := range tbl.entries {
		if !loaded(tbl.children[de.Ino]) {
			return false
		}
	}
	return len(tbl.children) == len(tbl.entries)
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

// The demand-first load ends with the table the one-by-one load builds, for
// directory sizes on both sides of the inline floor and of a whole round,
// with GETs completing in scrambled order, and with a demand touch at the
// first, middle or last dentry racing the loader. Whoever fetches a child,
// it is fetched once: the store sees the directory inode, the dentry block
// and each child, entries + 2 GETs.
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
				touches := map[string]int{"none": -1}
				if n > 0 {
					touches["first"], touches["middle"], touches["last"] = 0, n/2, n-1
				}
				for _, touch := range []string{"none", "first", "middle", "last"} {
					at, ok := touches[touch]
					if !ok {
						continue
					}
					t.Run("touch="+touch, func(t *testing.T) {
						env := sim.NewVirtEnv()
						env.Run(func() {
							st := &scrambledStore{Store: mem, env: env}
							got, lost, err := LoadWith(env, limit, prt.New(st, 0), dir, false, nil)
							if err != nil || lost != 0 {
								t.Fatalf("LoadWith: lost %d, err %v", lost, err)
							}
							if at >= 0 {
								child, err := got.Peek(name(at))
								if err != nil || child.Ino != inos[at] || child.Size != int64(at) {
									t.Fatalf("demand touch of %s: %+v, %v", name(at), child, err)
								}
							}
							got.Await()
							if !holdsEveryChild(got) {
								t.Fatal("the loader ended with children not in memory")
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
							if len(st.started) != n+2 {
								t.Fatalf("%d GETs for %d entries, want %d", len(st.started), n, n+2)
							}
							seen := make(map[string]bool, n+2)
							for _, k := range st.started {
								if seen[k] {
									t.Fatalf("%s fetched twice", k)
								}
								seen[k] = true
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
			})
		}
	}
}

// The serial load (Load, LoadDegraded: no env, the loader inline) fails with
// the error the one-by-one loop stops at: the first in dentry order, though a
// later one fails sooner. A corrupt child at index 3 and an I/O error at
// index 7 give ErrIntegrity to the strict load and EIO to the degraded one
// (which tolerates the corruption), and a corrupt and a missing child are the
// degraded load's lost count. With an env, LoadWith returns before any child
// is fetched, and a failed GET is the error of the touch that needed it:
// that touch names the child, and the next touch fetches it again.
func TestLoadWithErrorsAndLostCountsFollowDentryOrder(t *testing.T) {
	const n = 64
	mem := objstore.NewMemStore()
	dir, inos := plantDir(t, prt.New(mem, 0), 7, n)
	eio := fmt.Errorf("injected: %w", types.ErrIO)
	serial := func(degraded bool, fail map[string]error) (tbl *Table, lost int, err error) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			tbl, lost, err = LoadWith(nil, 1, prt.New(&scrambledStore{Store: mem, env: env, fail: fail}, 0), dir, degraded, nil)
		})
		return tbl, lost, err
	}

	// Two failing children: the first in dentry order is named.
	_, _, err := serial(true, map[string]error{prt.InodeKey(inos[40]): eio, prt.InodeKey(inos[20]): eio})
	if !errors.Is(err, types.ErrIO) || !strings.Contains(err.Error(), `"f00020"`) {
		t.Fatalf("two failing children: %v, want EIO naming f00020", err)
	}
	flipByte(t, mem, prt.InodeKey(inos[3]))
	fail := map[string]error{prt.InodeKey(inos[7]): eio}
	if _, _, err := serial(false, fail); !errors.Is(err, types.ErrIntegrity) || !strings.Contains(err.Error(), `"f00003"`) {
		t.Fatalf("strict load: %v, want ErrIntegrity at f00003", err)
	}
	if _, _, err := serial(true, fail); !errors.Is(err, types.ErrIO) || !strings.Contains(err.Error(), `"f00007"`) {
		t.Fatalf("degraded load: %v, want EIO at f00007", err)
	}
	// Corrupt at 3, missing at 9: both dropped and counted, the rest served.
	if err := mem.Delete(prt.InodeKey(inos[9])); err != nil {
		t.Fatal(err)
	}
	tbl, lost, err := serial(true, nil)
	if err != nil || lost != 2 || tbl.Len() != n-2 || tbl.Exists("f00003") || tbl.Exists("f00009") {
		t.Fatalf("degraded load: lost %d, err %v", lost, err)
	}

	for _, limit := range []int{1, 4, 16} {
		env := sim.NewVirtEnv()
		env.Run(func() {
			st := &scrambledStore{Store: mem, env: env, fail: map[string]error{prt.InodeKey(inos[20]): eio}}
			tbl, lost, err := LoadWith(env, limit, prt.New(st, 0), dir, false, nil)
			if err != nil || lost != 0 || tbl.Len() != n {
				t.Fatalf("limit %d: LoadWith: %d entries, lost %d, err %v", limit, tbl.Len(), lost, err)
			}
			tbl.Await()
			if _, err := tbl.Peek("f00020"); !errors.Is(err, types.ErrIO) || !strings.Contains(err.Error(), `"f00020"`) {
				t.Fatalf("limit %d: touch of a child whose GET fails: %v, want EIO naming f00020", limit, err)
			}
			delete(st.fail, prt.InodeKey(inos[20]))
			if child, err := tbl.Peek("f00020"); err != nil || child.Ino != inos[20] {
				t.Fatalf("limit %d: the next touch: %+v, %v", limit, child, err)
			}
			// The loader's GET, the failed touch's, the retry's.
			if got := st.gets(prt.InodeKey(inos[20])); got != 3 {
				t.Fatalf("limit %d: %d GETs of the failing child, want 3", limit, got)
			}
			if tbl.Lost() != 2 || tbl.Exists("f00003") || tbl.Exists("f00009") || tbl.Len() != n-2 {
				t.Fatalf("limit %d: lost %d, %d entries", limit, tbl.Lost(), tbl.Len())
			}
		})
	}
}

// A corrupt child is dropped whoever finds it, the loader or a demand touch,
// and the directory ends as LoadDegraded leaves it: the same entries, the
// same children, the same lost count. The touch that finds it meets a
// missing name, and the drop is reported once.
func TestLoadWithDropsACorruptChildWhoeverFindsIt(t *testing.T) {
	const n = 40
	mem := objstore.NewMemStore()
	dir, inos := plantDir(t, prt.New(mem, 0), 9, n)
	flipByte(t, mem, prt.InodeKey(inos[25]))
	want, wantLost, err := LoadDegraded(prt.New(mem, 0), dir)
	if err != nil || wantLost != 1 {
		t.Fatalf("LoadDegraded: lost %d, err %v", wantLost, err)
	}
	for _, limit := range []int{1, 16} {
		for _, finder := range []string{"loader", "touch"} {
			env := sim.NewVirtEnv()
			env.Run(func() {
				st := &scrambledStore{Store: mem, env: env}
				var reports []int
				tbl, lost, err := LoadWith(env, limit, prt.New(st, 0), dir, false, func(lost int) { reports = append(reports, lost) })
				if err != nil || lost != 0 {
					t.Fatalf("LoadWith: lost %d, err %v", lost, err)
				}
				if finder == "touch" {
					if _, err := tbl.Peek(name(25)); !errors.Is(err, types.ErrNotExist) {
						t.Fatalf("limit %d: touch of the corrupt child: %v, want ENOENT", limit, err)
					}
				}
				tbl.Await()
				if tbl.Lost() != wantLost || !reflect.DeepEqual(reports, []int{1}) {
					t.Fatalf("limit %d, %s: lost %d, reports %v", limit, finder, tbl.Lost(), reports)
				}
				if !reflect.DeepEqual(tbl.List(), want.List()) || !reflect.DeepEqual(dump(t, tbl), dump(t, want)) {
					t.Fatalf("limit %d, %s: the table differs from LoadDegraded's", limit, finder)
				}
			})
		}
	}
}

// Each method that reads or replaces a child, on a child that is pending (the
// touch fetches it itself), in flight (the touch waits for that GET, and
// makes none), and dropped (a miss). Stop ends the load: no GET starts after
// it, and a touch of a child not yet loaded is ESTALE.
func TestLoadWithTouchesPendingInFlightAndDroppedChildren(t *testing.T) {
	const n = 8
	mem := objstore.NewMemStore()
	dir, inos := plantDir(t, prt.New(mem, 0), 11, n)
	flipByte(t, mem, prt.InodeKey(inos[n-1]))
	methods := map[string]func(tbl *Table, i int) (*types.Inode, error){
		"Peek": func(tbl *Table, i int) (*types.Inode, error) { return tbl.Peek(name(i)) },
		"Lookup": func(tbl *Table, i int) (*types.Inode, error) {
			_, child, err := tbl.Lookup(name(i))
			return child, err
		},
		"Child":  func(tbl *Table, i int) (*types.Inode, error) { return tbl.Child(inos[i]) },
		"Remove": func(tbl *Table, i int) (*types.Inode, error) { return tbl.Remove(name(i)) },
		"UpdateChild": func(tbl *Table, i int) (*types.Inode, error) {
			next := &types.Inode{Ino: inos[i], Type: types.TypeRegular, Mode: 0600, Nlink: 1, Size: 1000}
			if err := tbl.UpdateChild(next); err != nil {
				return nil, err
			}
			return tbl.Child(inos[i])
		},
	}
	for _, m := range []string{"Peek", "Lookup", "Child", "Remove", "UpdateChild"} {
		touch := methods[m]
		t.Run(m, func(t *testing.T) {
			env := sim.NewVirtEnv()
			env.Run(func() {
				gate := sim.NewChan[struct{}](env)
				held := prt.InodeKey(inos[0])
				st := &scrambledStore{Store: mem, env: env, hold: map[string]*sim.Chan[struct{}]{held: gate}}
				tbl, _, err := LoadWith(env, 2, prt.New(st, 0), dir, false, nil)
				if err != nil {
					t.Fatal(err)
				}
				// Pending: the loader has not run yet, so the touch fetches.
				if child, err := touch(tbl, 3); err != nil || child.Ino != inos[3] {
					t.Fatalf("pending child: %+v, %v", child, err)
				}
				if got := st.gets(prt.InodeKey(inos[3])); got != 1 {
					t.Fatalf("pending child: %d GETs", got)
				}
				// In flight: the loader's GET of child 0 is held at the store.
				for st.gets(held) == 0 {
					env.Sleep(time.Microsecond)
				}
				var child *types.Inode
				done := sim.NewGroup(env)
				done.Go(func() { child, err = touch(tbl, 0) })
				env.Sleep(time.Millisecond)
				if child != nil || err != nil {
					t.Fatalf("the touch of a child in flight returned before its GET: %+v, %v", child, err)
				}
				gate.Close()
				done.Wait()
				if err != nil || child.Ino != inos[0] || st.gets(held) != 1 {
					t.Fatalf("child in flight: %+v, %v, %d GETs", child, err, st.gets(held))
				}
				// Dropped: the loader finds the corrupt last child.
				tbl.Await()
				if _, err := touch(tbl, n-1); !errors.Is(err, types.ErrNotExist) && !errors.Is(err, types.ErrStale) {
					t.Fatalf("dropped child: %v, want a miss", err)
				}
				if tbl.Lost() != 1 || len(st.started) != n+2 {
					t.Fatalf("lost %d, %d GETs", tbl.Lost(), len(st.started))
				}
			})
		})
	}
	t.Run("Stop", func(t *testing.T) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			st := &scrambledStore{Store: mem, env: env}
			tbl, _, err := LoadWith(env, 2, prt.New(st, 0), dir, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.Peek(name(1)); err != nil {
				t.Fatal(err)
			}
			tbl.Stop()
			before := len(st.started)
			for i := 0; i < n-1; i++ {
				if _, err := tbl.Peek(name(i)); err != nil && !errors.Is(err, types.ErrStale) {
					t.Fatalf("%s after Stop: %v, want the child or ESTALE", name(i), err)
				}
			}
			env.Sleep(time.Second)
			if len(st.started) != before || before >= n+2 {
				t.Fatalf("GETs: %d at Stop, %d after; the loader ran to the end", before, len(st.started))
			}
		})
	})
	// Stop does not wait for a GET already out: a leader stops a table on
	// its lease keeper's path, where a GET held for the store's whole retry
	// deadline would let the leases of its other directories lapse. Await
	// waits for it.
	t.Run("StopDoesNotWait", func(t *testing.T) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			gate := sim.NewChan[struct{}](env)
			held := prt.InodeKey(inos[0])
			st := &scrambledStore{Store: mem, env: env, hold: map[string]*sim.Chan[struct{}]{held: gate}}
			tbl, _, err := LoadWith(env, 1, prt.New(st, 0), dir, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for st.gets(held) == 0 {
				env.Sleep(time.Microsecond)
			}
			at := env.Now()
			tbl.Stop()
			if env.Now() != at {
				t.Fatalf("Stop took %v: it waited for the held GET", env.Now()-at)
			}
			var ended atomic.Bool
			done := sim.NewGroup(env)
			done.Go(func() {
				tbl.Await()
				ended.Store(true)
			})
			env.Sleep(time.Second)
			if ended.Load() {
				t.Fatal("Await returned while the loader's GET was held")
			}
			gate.Close()
			done.Wait()
			if len(st.started) != 3 {
				t.Fatalf("%d GETs, want the directory inode, the dentry block and the held child", len(st.started))
			}
		})
	})
}

// Under RealEnv the loader and four touching goroutines run at once, each
// toucher going through every child, two of them in reverse order; with the
// GETs at MemStore speed, touches meet children pending, in flight and
// loaded. Every touch gets its child, the table ends as the serial load
// built it, and each child was fetched once. Run with -race.
func TestLoadWithConcurrentTouchesUnderRealEnv(t *testing.T) {
	const n = 300
	mem := objstore.NewMemStore()
	dir, inos := plantDir(t, prt.New(mem, 0), 13, n)
	want, err := Load(prt.New(mem, 0), dir)
	if err != nil {
		t.Fatal(err)
	}
	env := sim.NewRealEnv()
	defer env.Shutdown()
	st := &scrambledStore{Store: mem, env: env}
	tbl, _, err := LoadWith(env, 4, prt.New(st, 0), dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := k
				if g%2 == 1 {
					i = n - 1 - k
				}
				var child *types.Inode
				var err error
				if g < 2 {
					child, err = tbl.Peek(name(i))
				} else {
					child, err = tbl.Child(inos[i])
				}
				if err != nil || child.Ino != inos[i] {
					t.Errorf("goroutine %d, child %d: %+v, %v", g, i, child, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	tbl.Await()
	if !holdsEveryChild(tbl) || !reflect.DeepEqual(dump(t, tbl), dump(t, want)) {
		t.Fatal("the table differs from the serial load's")
	}
	if len(st.started) != n+2 {
		t.Fatalf("%d GETs for %d entries, want %d", len(st.started), n, n+2)
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
