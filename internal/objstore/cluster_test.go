package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

func TestClusterContract(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := NewCluster(env, TestProfile())
	defer c.Close()
	storeContract(t, c)
}

func TestClusterReplication(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	prof := TestProfile()
	prof.Nodes, prof.Replicas = 5, 3
	c := NewCluster(env, prof)
	defer c.Close()
	if err := c.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	// The value must be present on exactly Replicas nodes.
	copies := 0
	for _, n := range c.nodes {
		n.mu.Lock()
		if _, ok := n.data["k"]; ok {
			copies++
		}
		n.mu.Unlock()
	}
	if copies != 3 {
		t.Fatalf("object replicated to %d nodes, want 3", copies)
	}
	if err := c.Delete("k"); err != nil {
		t.Fatal(err)
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		_, ok := n.data["k"]
		n.mu.Unlock()
		if ok {
			t.Fatal("delete left a replica behind")
		}
	}
}

func TestClusterMaxObjectSize(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	prof := TestProfile()
	prof.MaxObjectSize = 8
	c := NewCluster(env, prof)
	defer c.Close()
	if err := c.Put("big", make([]byte, 9)); !errors.Is(err, types.ErrInval) {
		t.Fatalf("oversize put: %v", err)
	}
	if err := c.Put("ok", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSizeOnlyMode(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	prof := TestProfile()
	prof.SizeOnly = true
	c := NewCluster(env, prof)
	defer c.Close()
	if err := c.Put("k", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("size-only Get returned %d bytes, want 5", len(got))
	}
	if n, err := c.Head("k"); err != nil || n != 5 {
		t.Fatalf("Head = %d, %v", n, err)
	}
}

func TestClusterVirtualTimeCharges(t *testing.T) {
	// In a VirtEnv, a Get of a 1 MiB object over a 1 MiB/s link takes just
	// over a virtual second; the wall clock barely moves.
	env := sim.NewVirtEnv()
	var elapsed time.Duration
	env.Run(func() {
		prof := TestProfile()
		prof.ClientNet = sim.NetModel{Latency: time.Millisecond, Bandwidth: 1 << 20}
		prof.SizeOnly = true
		prof.MaxObjectSize = 2 << 20
		c := NewCluster(env, prof)
		defer c.Close()
		if err := c.Put("k", make([]byte, 1<<20)); err != nil {
			t.Error(err)
			return
		}
		start := env.Now()
		if _, err := c.Get("k"); err != nil {
			t.Error(err)
			return
		}
		elapsed = env.Now() - start
	})
	if elapsed < time.Second || elapsed > 1100*time.Millisecond {
		t.Fatalf("virtual Get took %v, want ~1s", elapsed)
	}
}

func TestClusterParallelClientsShareVirtualTime(t *testing.T) {
	// 8 clients each fetch one object from different nodes concurrently;
	// total virtual time should be far below 8x a single fetch.
	env := sim.NewVirtEnv()
	var elapsed time.Duration
	env.Run(func() {
		prof := TestProfile()
		prof.Nodes, prof.Replicas, prof.WorkersPerNode = 8, 1, 4
		prof.OpOverhead = 10 * time.Millisecond
		c := NewCluster(env, prof)
		defer c.Close()
		for i := 0; i < 32; i++ {
			if err := c.Put(keyN(i), []byte("x")); err != nil {
				t.Error(err)
				return
			}
		}
		start := env.Now()
		g := sim.NewGroup(env)
		for i := 0; i < 32; i++ {
			i := i
			g.Go(func() {
				if _, err := c.Get(keyN(i)); err != nil {
					t.Error(err)
				}
			})
		}
		g.Wait()
		elapsed = env.Now() - start
	})
	serial := 32 * 10 * time.Millisecond
	if elapsed >= serial {
		t.Fatalf("parallel fetches took %v, not faster than serial %v", elapsed, serial)
	}
}

// TestClusterOrderMatchesServeLoop pins the order in which contended calls
// finish at one virtual instant. 64 goroutines make seeded, random calls on
// 4 nodes of 2 slots with RADOS-like costs, so calls queue for slots, collide
// at the same instants and replicate onto busy nodes. Each call's (goroutine,
// index, start, end, outcome) is hashed in completion order. The constant is
// the log of nodes served by one worker goroutine per slot, the order every
// committed figure and benchmark point was measured with (DESIGN.md §3): a
// change to the order of goroutines at one instant fails here in a second.
func TestClusterOrderMatchesServeLoop(t *testing.T) {
	const want = "ddcefbe30c8e1c32c6efaff7586842d9456cf1d8d7114ba0c5bc9deb4a01e4ce"
	env := sim.NewVirtEnv()
	h := sha256.New()
	calls := 0
	env.Run(func() {
		prof := RADOSProfile()
		prof.Nodes, prof.WorkersPerNode = 4, 2
		c := NewCluster(env, prof)
		defer c.Close()
		zeros := make([]byte, 1<<20)
		g := sim.NewGroup(env)
		for w := 0; w < 64; w++ {
			rng := rand.New(rand.NewSource(int64(w)))
			g.Go(func() {
				for i := 0; i < 40; i++ {
					env.Sleep(time.Duration(rng.Intn(3)) * 50 * time.Microsecond)
					key := fmt.Sprintf("%s%d", [2]string{"d:", "i:"}[rng.Intn(2)], rng.Intn(24))
					start := env.Now()
					var out any
					switch r := rng.Intn(100); {
					case r < 35:
						size := [3]int{0, 4 << 10, 64 << 10}[rng.Intn(3)]
						if key[0] == 'd' {
							size *= 16
						}
						out = c.Put(key, zeros[:size])
					case r < 55:
						b, err := c.Get(key)
						out = fmt.Sprint(len(b), err)
					case r < 65:
						b, err := c.GetRange(key, int64(rng.Intn(8<<10)), 8<<10)
						out = fmt.Sprint(len(b), err)
					case r < 80:
						out = c.Delete(key)
					case r < 97:
						size, err := c.Head(key)
						out = fmt.Sprint(size, err)
					default:
						keys, err := c.List(key[:2])
						out = fmt.Sprint(keys, err)
					}
					fmt.Fprintf(h, "%d %d %d %d %v\n", w, i, start, env.Now(), out)
					calls++
				}
			})
		}
		g.Wait()
	})
	if calls != 64*40 {
		t.Fatalf("%d calls finished, want %d", calls, 64*40)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("completion log hashes to %s, want %s: the order of calls at one virtual instant changed", got, want)
	}
}

func TestCloseReturnsCallsInFlight(t *testing.T) {
	// A Put that Close catches in its request's flight or in its
	// replication returns: the running call finishes, or one still waiting
	// for a slot fails.
	for _, tc := range []struct {
		name         string
		client, repl time.Duration
	}{
		{"request", 50 * time.Millisecond, 0},
		{"replication", 0, 50 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewRealEnv()
			defer env.Shutdown()
			prof := TestProfile()
			prof.Nodes, prof.Replicas = 3, 3
			prof.ClientNet.Latency, prof.ReplNet.Latency = tc.client, tc.repl
			c := NewCluster(env, prof)
			done := make(chan error, 1)
			go func() { done <- c.Put("k", []byte("v")) }()
			time.Sleep(10 * time.Millisecond)
			c.Close()
			select {
			case err := <-done:
				if err != nil && !errors.Is(err, types.ErrIO) {
					t.Fatalf("Put across Close: %v", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Put still blocked 2s after Close")
			}
		})
	}
}

func TestClusterSlots(t *testing.T) {
	t.Run("no goroutines", func(t *testing.T) {
		env := sim.NewRealEnv()
		defer env.Shutdown()
		before := runtime.NumGoroutine()
		c := NewCluster(env, RADOSProfile())
		defer c.Close()
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("NewCluster started %d goroutines", after-before)
		}
	})

	// ends runs fn(i) for i in [0, n) on goroutines started together on a
	// cluster of one slot per node and 10 ms of service per request, and
	// returns which i finished at which virtual time, in completion order.
	ends := func(t *testing.T, prof Profile, n int, fn func(c *Cluster, i int) error) (order []int, at []time.Duration) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			prof.WorkersPerNode, prof.OpOverhead = 1, 10*time.Millisecond
			c := NewCluster(env, prof)
			defer c.Close()
			g := sim.NewGroup(env)
			for i := 0; i < n; i++ {
				g.Go(func() {
					if err := fn(c, i); err != nil {
						t.Error(err)
					}
					order, at = append(order, i), append(at, env.Now())
				})
			}
			g.Wait()
		})
		return order, at
	}
	check := func(t *testing.T, order []int, at []time.Duration, first time.Duration) {
		t.Helper()
		for i := range order {
			if want := first + time.Duration(i)*10*time.Millisecond; order[i] != i || at[i] != want {
				t.Fatalf("finished %v at %v: want arrival order, 10ms apart from %v", order, at, first)
			}
		}
	}

	t.Run("primary", func(t *testing.T) {
		// Five Heads at one primary of one slot are served one at a time,
		// first come first served.
		prof := TestProfile()
		prof.Nodes, prof.Replicas = 1, 1
		order, at := ends(t, prof, 5, func(c *Cluster, i int) error {
			_, err := c.Head("k")
			if errors.Is(err, ErrNotExist) {
				err = nil
			}
			return err
		})
		check(t, order, at, 10*time.Millisecond)
	})

	t.Run("replica", func(t *testing.T) {
		// Two Puts with two primaries and one replica in common: the
		// primaries store at once, and the copies queue at the replica.
		prof := TestProfile()
		prof.Nodes, prof.Replicas = 3, 2
		env := sim.NewRealEnv()
		defer env.Shutdown()
		probe := NewCluster(env, prof)
		keys := map[int]string{} // by primary, keys replicated to node 0
		for k := 0; len(keys) < 2; k++ {
			key := fmt.Sprint("k", k)
			if p := probe.placement(key); p[1].id == 0 {
				keys[p[0].id] = key
			}
		}
		order, at := ends(t, prof, 2, func(c *Cluster, i int) error { return c.Put(keys[i+1], nil) })
		check(t, order, at, 20*time.Millisecond)
	})

	t.Run("close", func(t *testing.T) {
		// Close fails the verb waiting for the slot and lets the one in it
		// finish.
		env := sim.NewVirtEnv()
		var running, waiting, later error
		env.Run(func() {
			prof := TestProfile()
			prof.Nodes, prof.Replicas, prof.WorkersPerNode = 1, 1, 1
			prof.OpOverhead = 10 * time.Millisecond
			c := NewCluster(env, prof)
			if err := c.Put("k", []byte("v")); err != nil {
				t.Error(err)
			}
			g := sim.NewGroup(env)
			g.Go(func() { _, running = c.Get("k") })
			g.Go(func() { _, waiting = c.Get("k") })
			env.Sleep(5 * time.Millisecond)
			c.Close()
			g.Wait()
			_, later = c.Get("k")
		})
		if running != nil || !errors.Is(waiting, types.ErrIO) || !errors.Is(later, types.ErrIO) {
			t.Fatalf("across Close: running %v, waiting %v, later %v", running, waiting, later)
		}
	})
}

func keyN(i int) string {
	return "obj-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestClusterStats(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := NewCluster(env, TestProfile())
	defer c.Close()
	_ = c.Put("k", make([]byte, 100))
	_, _ = c.Get("k")
	_, _ = c.Get("k")
	if got := c.Stat().Puts.Load(); got != 1 {
		t.Errorf("puts = %d", got)
	}
	if got := c.Stat().Gets.Load(); got != 2 {
		t.Errorf("gets = %d", got)
	}
	if got := c.Stat().BytesIn.Load(); got != 100 {
		t.Errorf("bytesIn = %d", got)
	}
	if got := c.Stat().BytesOut.Load(); got != 200 {
		t.Errorf("bytesOut = %d", got)
	}
}

func TestClusterPlacementStableAndSpread(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	prof := TestProfile()
	prof.Nodes, prof.Replicas = 8, 3
	c := NewCluster(env, prof)
	defer c.Close()
	counts := make(map[int]int)
	for i := 0; i < 512; i++ {
		p := c.placement(keyN(i) + "-spread")
		if len(p) != 3 {
			t.Fatalf("placement size %d", len(p))
		}
		if p[0] == p[1] || p[1] == p[2] || p[0] == p[2] {
			t.Fatal("duplicate nodes in replica set")
		}
		counts[p[0].id]++
		// Stability: same key, same placement.
		q := c.placement(keyN(i) + "-spread")
		for j := range p {
			if p[j] != q[j] {
				t.Fatal("placement not deterministic")
			}
		}
	}
	for id, n := range counts {
		if n == 0 {
			t.Errorf("node %d never primary", id)
		}
	}
}

// placementRef is placement as first written: FNV-1a of "key|id" through
// fmt for every node, all scores sorted.
func placementRef(c *Cluster, key string) []*node {
	type scored struct {
		score uint64
		n     *node
	}
	s := make([]scored, len(c.nodes))
	for i, n := range c.nodes {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d", key, n.id)
		s[i] = scored{h.Sum64(), n}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].score > s[j].score })
	out := make([]*node, c.prof.Replicas)
	for i := range out {
		out[i] = s[i].n
	}
	return out
}

func TestClusterPlacementMatchesReference(t *testing.T) {
	// Every stored object's home depends on placement: the inlined hash and
	// the kept-by-insertion winners must pick what the fmt and sort form
	// picked, in the same order, for every deployment profile.
	rng := rand.New(rand.NewSource(29))
	keys := []string{"", strings.Repeat("k", 1024), "ключ/日本語", "\x00|\xff", "d:0123:7"}
	for len(keys) < 10000 {
		b := make([]byte, rng.Intn(80))
		rng.Read(b) // arbitrary bytes, mostly not valid UTF-8
		keys = append(keys, string(b))
	}
	env := sim.NewRealEnv()
	defer env.Shutdown()
	for _, prof := range []Profile{RADOSProfile(), S3Profile(), TestProfile()} {
		c := NewCluster(env, prof)
		defer c.Close()
		for _, k := range keys {
			got, want := c.placement(k), placementRef(c, k)
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%s: placement(%q) = %v, want %v", prof.Name, k, ids(got), ids(want))
				}
			}
		}
	}
}

func ids(ns []*node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.id
	}
	return out
}

func TestClusterPlacementAllocs(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := NewCluster(env, RADOSProfile())
	defer c.Close()
	key := "d:0123456789abcdef0123456789abcdef:42"
	if n := testing.AllocsPerRun(100, func() { _ = c.placement(key) }); n > 1 {
		t.Fatalf("placement makes %v allocations, want 1 (the replica set)", n)
	}
}

// benchCluster runs fn against a RADOS-profile cluster in a virtual
// environment, timing only fn.
func benchCluster(b *testing.B, fn func(c *Cluster)) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		c := NewCluster(env, RADOSProfile())
		defer c.Close()
		b.ReportAllocs()
		b.ResetTimer()
		fn(c)
		b.StopTimer()
	})
}

func BenchmarkClusterPut(b *testing.B) {
	data := make([]byte, 4096)
	benchCluster(b, func(c *Cluster) {
		for i := 0; i < b.N; i++ {
			if err := c.Put("i:0123456789abcdef0123456789abcdef", data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClusterGetSizeOnly(b *testing.B) {
	const key = "d:0123456789abcdef0123456789abcdef:0"
	benchCluster(b, func(c *Cluster) {
		b.StopTimer()
		if err := c.Put(key, make([]byte, 2<<20)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Get(key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestSizeOnlyPrefixSelective(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	prof := TestProfile()
	prof.SizeOnlyPrefix = "d:"
	c := NewCluster(env, prof)
	defer c.Close()
	// Metadata-prefixed objects keep their payloads.
	if err := c.Put("i:meta", []byte("inode-bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("i:meta")
	if err != nil || string(got) != "inode-bytes" {
		t.Fatalf("metadata payload lost: %q, %v", got, err)
	}
	// Data-prefixed objects are size-only.
	if err := c.Put("d:chunk", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err = c.Get("d:chunk")
	if err != nil || len(got) != 7 {
		t.Fatalf("data size lost: %d, %v", len(got), err)
	}
	// The synthetic payload is zeros sealed with a valid CRC32C trailer, so
	// integrity-verifying readers accept it instead of flagging corruption.
	body, err := wire.Unseal(got)
	if err != nil {
		t.Fatalf("discarded payload fails verification: %v", err)
	}
	for _, b := range body {
		if b != 0 {
			t.Fatal("discarded payload returned non-zero body bytes")
		}
	}
	// Ranged reads follow the same rule.
	part, err := c.GetRange("d:chunk", 2, 3)
	if err != nil || len(part) != 3 {
		t.Fatalf("ranged size-only read: %d, %v", len(part), err)
	}
	// A ranged read covering the tail sees the same trailer bytes Get serves.
	tail, err := c.GetRange("d:chunk", 3, 4)
	if err != nil || string(tail) != string(got[3:]) {
		t.Fatalf("ranged tail diverges from Get: %x vs %x (%v)", tail, got[3:], err)
	}
	// A size's frame is made once and lent to every read of that size,
	// clipped, as a stored value is; another size gets a frame of its own.
	again, err := c.Get("d:chunk")
	if err != nil || unsafe.SliceData(again) != unsafe.SliceData(got) || cap(again) != len(again) {
		t.Fatalf("second size-only read: cap %d, %v; want the first read's frame", cap(again), err)
	}
	if err := c.Put("d:other", make([]byte, 9)); err != nil {
		t.Fatal(err)
	}
	other, err := c.Get("d:other")
	if _, uerr := wire.Unseal(other); err != nil || uerr != nil || len(other) != 9 {
		t.Fatalf("size-only read of another size: %d bytes, %v, %v", len(other), err, uerr)
	}
}

func TestClusterGetRangeClipping(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	c := NewCluster(env, TestProfile())
	defer c.Close()
	if err := c.Put("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		off, n int64
		want   string
	}{
		{0, 4, "0123"},
		{5, 100, "56789"},
		{10, 4, ""},
		{8, 2, "89"},
	}
	for _, tc := range cases {
		got, err := c.GetRange("k", tc.off, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("GetRange(%d,%d) = %q, want %q", tc.off, tc.n, got, tc.want)
		}
	}
}
