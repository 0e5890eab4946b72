package objstore_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"arkfs/internal/crashpoint"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// rangeContract covers the verb storeContract leaves out.
func rangeContract(t *testing.T, s objstore.Store) {
	t.Helper()
	if err := s.Put("r/k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if got, err := s.GetRange("r/k", 2, 4); err != nil || string(got) != "2345" {
		t.Fatalf("GetRange(2,4) = %q, %v", got, err)
	}
	if got, err := s.GetRange("r/k", 8, 100); err != nil || string(got) != "89" {
		t.Fatalf("GetRange past the end = %q, %v, want it clipped", got, err)
	}
	if _, err := s.GetRange("r/none", 0, 1); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("GetRange missing: %v", err)
	}
}

// TestWrapperContracts: a wrapper with nothing armed, tripped or killed is
// the store under it, alone and in the order a client stacks them.
func TestWrapperContracts(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	policy := objstore.RetryPolicy{MaxAttempts: 3, InitialBackoff: 50 * time.Microsecond}
	type mount = func(objstore.Store) objstore.Store
	fault := func(s objstore.Store) objstore.Store { return objstore.NewFaultStore(s) }
	instrument := func(s objstore.Store) objstore.Store { return objstore.Instrument(s, obs.NewRegistry()) }
	retry := func(s objstore.Store) objstore.Store { return objstore.NewRetryStore(env, s, policy) }
	gate := func(s objstore.Store) objstore.Store { return crashpoint.NewGateStore(crashpoint.NewSet(), s) }
	for _, tc := range []struct {
		name   string
		layers []mount // innermost first
	}{
		{"fault", []mount{fault}},
		{"instrument", []mount{instrument}},
		{"retry", []mount{retry}},
		{"gate", []mount{gate}},
		{"stack", []mount{fault, instrument, retry, gate}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s objstore.Store = objstore.NewMemStore()
			for _, mount := range tc.layers {
				s = mount(s)
			}
			objstore.StoreContract(t, s)
			rangeContract(t, s)
		})
	}
}

// TestInstrumentCountsVerbsBytesAndErrors pins the counter names and what
// each verb adds to them.
func TestInstrumentCountsVerbsBytesAndErrors(t *testing.T) {
	reg := obs.NewRegistry()
	s := objstore.Instrument(objstore.NewMemStore(), reg)
	rangeContract(t, s) // 1 put of 10 B, 3 getranges (4 B, 2 B, one missing)
	if _, err := s.Get("r/k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Head("r/k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.List("r/"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("r/k"); err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot().Counters
	for name, want := range map[string]int64{
		"objstore.put": 1, "objstore.get": 1, "objstore.getrange": 3,
		"objstore.delete": 1, "objstore.list": 1, "objstore.head": 1,
		"objstore.errors": 1, "objstore.bytes.put": 10, "objstore.bytes.get": 16,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
	if objstore.Instrument(s, nil) != s {
		t.Error("Instrument with a nil registry must return its argument")
	}
}

// TestWrapperErrorStrings: every refusal names the verb and the key the way
// it always has, on all six verbs.
func TestWrapperErrorStrings(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		flaky := objstore.NewFaultStore(objstore.NewMemStore())
		flaky.SetFlaky(1, 1)
		dead := crashpoint.NewSet()
		dead.Kill()
		verbs := []struct {
			name string
			call func(objstore.Store) error
		}{
			{"put", func(s objstore.Store) error { return s.Put("k", []byte("v")) }},
			{"get", func(s objstore.Store) error { _, err := s.Get("k"); return err }},
			{"getrange", func(s objstore.Store) error { _, err := s.GetRange("k", 0, 1); return err }},
			{"delete", func(s objstore.Store) error { return s.Delete("k") }},
			{"list", func(s objstore.Store) error { _, err := s.List("k"); return err }},
			{"head", func(s objstore.Store) error { _, err := s.Head("k"); return err }},
		}
		for _, w := range []struct {
			store objstore.Store
			want  string // with %s for the verb
			is    error
		}{
			{flaky, `faultstore: injected %s failure on "k": `, types.ErrIO},
			{objstore.NewRetryStore(env, flaky, objstore.RetryPolicy{MaxAttempts: 2}),
				`objstore: %s "k" gave up after 2 attempt(s): faultstore: injected %[1]s failure on "k": `, types.ErrIO},
			{crashpoint.NewGateStore(dead, flaky), `crashpoint: client killed, %s "k" dropped: `, types.ErrIO},
		} {
			for _, v := range verbs {
				err := v.call(w.store)
				want := fmt.Sprintf(w.want, v.name)
				if err == nil || !strings.HasPrefix(err.Error(), want) || !errors.Is(err, w.is) {
					t.Errorf("%T %s: %v, want prefix %q wrapping %v", w.store, v.name, err, want, w.is)
				}
			}
		}
	})
}

// TestWrappersAllocateNothingPerVerb: a request travels the whole stack as
// values; only the store at the bottom allocates (here it does not).
func TestWrappersAllocateNothingPerVerb(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	var s objstore.Store = objstore.Verbs(func(objstore.Op) (objstore.Result, error) { return objstore.Result{}, nil })
	s = objstore.Instrument(objstore.NewFaultStore(s), obs.NewRegistry())
	s = objstore.NewRetryStore(env, s, objstore.RetryPolicy{})
	s = crashpoint.NewGateStore(crashpoint.NewSet(), s)
	data := make([]byte, 4096)
	if n := testing.AllocsPerRun(100, func() {
		_ = s.Put("d:k", data)
		_, _ = s.Get("d:k")
		_, _ = s.GetRange("d:k", 0, 1)
		_ = s.Delete("d:k")
		_, _ = s.List("d:")
		_, _ = s.Head("d:k")
	}); n != 0 {
		t.Fatalf("six verbs through four wrappers allocate %v times, want 0", n)
	}
}
