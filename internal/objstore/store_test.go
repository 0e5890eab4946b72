package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"reflect"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// storeContract exercises the Store interface contract against any
// implementation.
func storeContract(t *testing.T, s Store) {
	t.Helper()
	// Missing objects.
	if _, err := s.Get("nope"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("Get missing: %v", err)
	}
	if _, err := s.Head("nope"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("Head missing: %v", err)
	}
	if err := s.Delete("nope"); err != nil {
		t.Fatalf("Delete missing should be idempotent: %v", err)
	}
	// Round trip.
	want := []byte("hello object world")
	if err := s.Put("a/k1", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/k1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	if n, err := s.Head("a/k1"); err != nil || n != int64(len(want)) {
		t.Fatalf("Head = %d, %v", n, err)
	}
	// Overwrite.
	if err := s.Put("a/k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get("a/k1"); string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	// List with prefix, sorted.
	for _, k := range []string{"a/k2", "b/k3", "a/k0"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.List("a/")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys, []string{"a/k0", "a/k1", "a/k2"}) {
		t.Fatalf("List = %v", keys)
	}
	// Delete then gone.
	if err := s.Delete("a/k1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a/k1"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("deleted object still readable: %v", err)
	}
	// Empty value round trip.
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get("empty"); err != nil || len(got) != 0 {
		t.Fatalf("empty object: %q %v", got, err)
	}
}

func TestMemStoreContract(t *testing.T) { storeContract(t, NewMemStore()) }

// The ownership rule on both base stores: Put keeps a tight buffer as it is
// and an exact copy of a slack one, and Get and GetRange lend what is stored,
// clipped to len == cap.
func TestPutKeepsAndGetLends(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	cluster := NewCluster(env, TestProfile())
	defer cluster.Close()
	for name, s := range map[string]Store{"mem": NewMemStore(), "cluster": cluster} {
		t.Run(name, func(t *testing.T) {
			tight := []byte("tight-value")[:11:11]
			if err := s.Put("tight", tight); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("tight")
			if err != nil || unsafe.SliceData(got) != unsafe.SliceData(tight) || cap(got) != len(got) {
				t.Fatalf("Get of a tight buffer: %q (cap %d), %v; want the buffer handed to Put", got, cap(got), err)
			}
			again, _ := s.Get("tight")
			if unsafe.SliceData(again) != unsafe.SliceData(got) {
				t.Fatal("a second Get lent a different buffer")
			}

			slack := make([]byte, 5, 64)
			copy(slack, "slack")
			if err := s.Put("slack", slack); err != nil {
				t.Fatal(err)
			}
			got, err = s.Get("slack")
			if err != nil || string(got) != "slack" || unsafe.SliceData(got) == unsafe.SliceData(slack) || cap(got) != 5 {
				t.Fatalf("Get of a slack buffer: %q (cap %d), %v; want an exact copy", got, cap(got), err)
			}

			part, err := s.GetRange("tight", 2, 3)
			if err != nil || string(part) != "ght" || cap(part) != 3 || unsafe.SliceData(part) != &tight[2] {
				t.Fatalf("GetRange: %q (cap %d), %v; want a lent, clipped window", part, cap(part), err)
			}
		})
	}
}

func TestHTTPStoreContract(t *testing.T) {
	srv := httptest.NewServer(NewGateway(NewMemStore()))
	defer srv.Close()
	storeContract(t, NewHTTPStore(srv.URL))
}

func TestHTTPStoreKeyEscaping(t *testing.T) {
	srv := httptest.NewServer(NewGateway(NewMemStore()))
	defer srv.Close()
	s := NewHTTPStore(srv.URL)
	key := "i:weird key/with?chars&=%"
	if err := s.Put(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || string(got) != "v" {
		t.Fatalf("escaped key round trip: %q %v", got, err)
	}
	keys, err := s.List("i:")
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("List = %v, %v", keys, err)
	}
}

func TestFaultStoreInjectsFailures(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.FailNext("j:", 2)
	if err := fs.Put("i:x", []byte("ok")); err != nil {
		t.Fatalf("non-matching prefix should pass: %v", err)
	}
	if err := fs.Put("j:x", []byte("v")); !errors.Is(err, types.ErrIO) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if err := fs.Delete("j:x"); !errors.Is(err, types.ErrIO) {
		t.Fatalf("want injected failure, got %v", err)
	}
	if err := fs.Put("j:x", []byte("v")); err != nil {
		t.Fatalf("faults should be exhausted: %v", err)
	}
}

func TestFaultStoreTornWrites(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	fs.TearNext("j:", 1)
	if err := fs.Put("j:t", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Get("j:t")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("torn write stored %d bytes, want 5", len(got))
	}
}

func TestFaultStoreCountsEveryVerb(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if err := fs.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Get("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.GetRange("k", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.List("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Head("k"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if got := fs.Ops(); got != 6 {
		t.Fatalf("Ops() = %d after one of each verb, want 6", got)
	}
}

func TestFaultStoreFailsReads(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if err := fs.Put("j:k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fs.FailNextRead("j:", 2)
	if _, err := fs.Get("i:other"); err == nil || !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("non-matching read should pass through: %v", err)
	}
	if _, err := fs.Get("j:k"); !errors.Is(err, types.ErrIO) {
		t.Fatalf("want injected read failure, got %v", err)
	}
	if _, err := fs.List("j:"); !errors.Is(err, types.ErrIO) {
		t.Fatalf("want injected list failure, got %v", err)
	}
	if v, err := fs.Get("j:k"); err != nil || string(v) != "v" {
		t.Fatalf("read faults should be exhausted: %q %v", v, err)
	}
	// Read faults must not consume the write budget and vice versa.
	fs.FailNextRead("j:", 1)
	if err := fs.Put("j:k", []byte("v2")); err != nil {
		t.Fatalf("write should pass with only read faults armed: %v", err)
	}
}

func TestFaultStoreFlakyModeDeterministic(t *testing.T) {
	pattern := func(seed int64) []bool {
		fs := NewFaultStore(NewMemStore())
		fs.SetFlaky(0.5, seed)
		out := make([]bool, 100)
		for i := range out {
			out[i] = fs.Put("k", []byte("v")) != nil
		}
		return out
	}
	p1, p2 := pattern(42), pattern(42)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("flaky mode not deterministic for equal seeds")
	}
	fails := 0
	for _, f := range p1 {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(p1) {
		t.Fatalf("flaky(0.5) failed %d/%d ops, want a mix", fails, len(p1))
	}
	// Disabling restores clean passage.
	fs := NewFaultStore(NewMemStore())
	fs.SetFlaky(0.5, 42)
	fs.SetFlaky(0, 0)
	for i := 0; i < 50; i++ {
		if err := fs.Put("k", []byte("v")); err != nil {
			t.Fatalf("flaky disabled but op %d failed: %v", i, err)
		}
	}
}

func TestFaultStoreInjectedLatency(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		fs := NewFaultStore(NewMemStore())
		fs.InjectLatency(env, 10*time.Millisecond)
		start := env.Now()
		if err := fs.Put("k", []byte("v")); err != nil {
			t.Errorf("Put: %v", err)
		}
		if _, err := fs.Get("k"); err != nil {
			t.Errorf("Get: %v", err)
		}
		if got := env.Now() - start; got < 20*time.Millisecond {
			t.Errorf("2 ops advanced the clock by %v, want >= 20ms", got)
		}
	})
}

// Property: MemStore behaves like a map for an arbitrary op sequence.
func TestMemStoreMatchesMapQuick(t *testing.T) {
	type op struct {
		Kind byte
		Key  uint8
		Val  []byte
	}
	f := func(ops []op) bool {
		s := NewMemStore()
		model := map[string][]byte{}
		for _, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%8)
			switch o.Kind % 3 {
			case 0:
				_ = s.Put(k, o.Val)
				model[k] = append([]byte(nil), o.Val...)
			case 1:
				got, err := s.Get(k)
				want, ok := model[k]
				if ok != (err == nil) {
					return false
				}
				if ok && !bytes.Equal(got, want) {
					return false
				}
			case 2:
				_ = s.Delete(k)
				delete(model, k)
			}
		}
		keys, _ := s.List("")
		return len(keys) == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
