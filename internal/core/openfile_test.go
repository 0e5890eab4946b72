package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// putGate parks the first PUT of a data object that arrives once it is armed.
type putGate struct {
	objstore.Store
	armed   atomic.Bool
	entered chan struct{} // closed when the PUT is parked
	release chan struct{} // close to let it through
}

func (g *putGate) Put(key string, data []byte) error {
	if strings.HasPrefix(key, "d:") && g.armed.Swap(false) {
		close(g.entered)
		<-g.release
	}
	return g.Store.Put(key, data)
}

// holdsLease reports whether dir's leader lists client as a holder of ino's
// data lease.
func holdsLease(t *testing.T, leader *Client, dir, ino types.Ino, client rpc.Addr) bool {
	t.Helper()
	ld, ok := leader.ledDirFor(dir)
	if !ok {
		t.Errorf("%s does not lead %s", leader.Addr(), dir.Short())
		return false
	}
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	return ld.leases.holds(ino, client)
}

// leaderOf makes a client that leads path, a new directory.
func leaderOf(t testing.TB, tc *testCluster, path string, opts ...func(*Options)) *Client {
	t.Helper()
	leader := tc.client(t, "leader", opts...)
	ctx := context.Background()
	if err := leader.Mkdir(ctx, path, 0777); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Readdir(ctx, path); err != nil {
		t.Fatal(err)
	}
	return leader
}

func readAll(t *testing.T, c *Client, path string) string {
	t.Helper()
	f, err := c.Open(context.Background(), path, types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

// A handle opened while the last Close's write-back is still in its PUT adopts
// the record: the late release neither invalidates the bytes the new handle
// buffers nor gives back the lease it relies on, and Open does not wait for
// the PUT.
func TestReopenDuringWritebackKeepsDataAndLease(t *testing.T) {
	for _, mode := range []string{"local", "forwarded"} {
		t.Run(mode, func(t *testing.T) {
			tc := newTestCluster(t)
			gate := &putGate{Store: tc.fault, entered: make(chan struct{}), release: make(chan struct{})}
			tc.tr = prt.New(gate, tc.tr.ChunkSize())
			leader := leaderOf(t, tc, "/d")
			c := leader
			if mode == "forwarded" {
				c = tc.client(t, "peer")
			}
			ctx := context.Background()
			f, err := c.Create(ctx, "/d/f", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			gate.armed.Store(true)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			<-gate.entered

			var g *File
			reopened := make(chan error, 1)
			go func() {
				var err error
				if g, err = c.Open(ctx, "/d/f", types.OWronly|types.OAppend, 0); err == nil {
					_, err = g.Write([]byte("XY"))
				}
				reopened <- err
			}()
			select {
			case err := <-reopened:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				close(gate.release)
				t.Fatal("Open waits for the write-back PUT of the last Close")
			}
			close(gate.release)

			// The first Close's release now finds the record referenced and
			// stands down, which nothing lets a test wait for; so the lease is
			// watched for a while instead. At the parent of this test it was
			// gone, and the cache with it, within microseconds of the PUT.
			dir, err := leader.Stat(ctx, "/d")
			if err != nil {
				t.Fatal(err)
			}
			for until := time.Now().Add(20 * time.Millisecond); time.Now().Before(until); time.Sleep(time.Millisecond) {
				if !holdsLease(t, leader, dir.Ino, g.Ino(), c.Addr()) {
					t.Error("the leader dropped this client's data lease while a handle is open")
					break
				}
			}
			if err := g.Close(); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, c, "/d/f"); got != "0123456789XY" {
				t.Fatalf("content = %q", got)
			}
		})
	}
}

// Two handles of one client on one file share its size: an O_APPEND handle
// appends after what a sibling wrote, a reader opened before the append sees
// it, and whichever handle closes last publishes the whole file.
func TestTwoHandlesShareOneSize(t *testing.T) {
	for _, order := range []string{"writer closes first", "appender closes first"} {
		t.Run(order, func(t *testing.T) {
			tc := newTestCluster(t)
			c, other := tc.client(t, "a"), tc.client(t, "b")
			ctx := context.Background()
			a, err := c.Create(ctx, "/f", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := a.Write([]byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			r, err := c.Open(ctx, "/f", types.ORdonly, 0)
			if err != nil {
				t.Fatal(err)
			}
			b, err := c.Open(ctx, "/f", types.OWronly|types.OAppend, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Write([]byte("XY")); err != nil {
				t.Fatal(err)
			}
			const want = "0123456789XY"
			if got, err := io.ReadAll(r); err != nil || string(got) != want {
				t.Fatalf("reader opened before the append sees %q, %v", got, err)
			}
			closing := []*File{a, b, r}
			if order == "appender closes first" {
				closing = []*File{b, a, r}
			}
			for _, f := range closing {
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if got := readAll(t, c, "/f"); got != want {
				t.Fatalf("third handle reads %q", got)
			}
			if err := c.FlushAll(ctx); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, other, "/f"); got != want {
				t.Fatalf("second client reads %q", got)
			}
		})
	}
}

// A lease recall that meets handles being opened and closed on the recalled
// client flips the record, not a set of handles it would have to walk: run
// under -race. Afterwards every handle the client still has is direct and
// reads what the conflicting writer wrote.
func TestRecallRacesOpenClose(t *testing.T) {
	tc := newTestCluster(t)
	leaderOf(t, tc, "/s")
	c1, c2 := tc.client(t, "c1"), tc.client(t, "c2")
	ctx := context.Background()
	for round := 0; round < 10; round++ {
		path := fmt.Sprintf("/s/f%d", round)
		h, err := c1.Open(ctx, path, types.ORdwr|types.OCreate, 0666)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Write([]byte("aaaa")); err != nil { // c1 holds the write lease and caches
			t.Fatal(err)
		}
		stop, churned := make(chan struct{}), make(chan error, 1)
		go func() {
			for {
				select {
				case <-stop:
					churned <- nil
					return
				default:
				}
				f, err := c1.Open(ctx, path, types.ORdonly, 0)
				if err != nil {
					churned <- err
					return
				}
				_ = f.Close()
			}
		}()
		// c2's open finds c1 writing: the leader sends c1 a FlushCacheReq.
		w, err := c2.Open(ctx, path, types.ORdwr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt([]byte("bb"), 0); err != nil {
			t.Fatal(err)
		}
		close(stop)
		if err := <-churned; err != nil {
			t.Fatal(err)
		}
		late, err := c1.Open(ctx, path, types.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*File{h, late} {
			f.of.mu.Lock()
			direct := f.of.direct
			f.of.mu.Unlock()
			if !direct {
				t.Fatalf("round %d: a handle of the recalled client still caches", round)
			}
			buf := make([]byte, 4)
			if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "bbaa" {
				t.Fatalf("round %d: recalled client reads %q, %v", round, buf, err)
			}
		}
		for _, f := range []*File{h, late, w} {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// The invariant under concurrent use of one file: whenever an Open has
// returned a handle, the leader lists the client, although another
// goroutine's last Close may be returning the lease at that very moment (the
// Open waits out that one message). Run under -race.
func TestConcurrentOpenCloseKeepsLease(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "peer")
	ctx := context.Background()
	f, err := c.Create(ctx, "/d/f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	dir, err := leader.Stat(ctx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	// Jitter lets a message overtake an earlier one on the fabric.
	plan := rpc.NewFaultPlan(tc.env, 1)
	plan.SetLatency(0, 300*time.Microsecond)
	tc.net.SetFaultPlan(plan)
	defer tc.net.SetFaultPlan(nil)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15 && !t.Failed(); i++ {
				f, err := c.Open(ctx, "/d/f", types.ORdonly, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !holdsLease(t, leader, dir.Ino, f.Ino(), c.Addr()) {
					t.Error("a handle is open and the leader does not list its client")
				}
				_ = f.Close()
			}
		}()
	}
	wg.Wait()
	if err := c.FlushAll(ctx); err != nil { // the last return is off the caller's stack
		t.Fatal(err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.open) != 0 {
		t.Fatalf("%d records left after every handle closed", len(c.open))
	}
}

// BenchmarkCreateWriteClose is the small-file path of mdtest-hard and of the
// archive workloads: one 3,901-byte file created, written and closed per
// iteration, by the directory's leader and by a client that forwards to it.
// It runs at the deployed chunk size, which is what a file's first cache
// buffer is sized against. B/op and allocs/op are the numbers to watch: what
// a client keeps per open inode, and what the cache and the journal take per
// small file, is allocated here.
func BenchmarkCreateWriteClose(b *testing.B) {
	for _, mode := range []string{"local", "forwarded"} {
		b.Run(mode, func(b *testing.B) {
			tc := newTestClusterAt(b, 2<<20)
			// No commit tick inside the loop: a tick's checkpoint rewrites the
			// whole dentry block, so how many fire (the box's speed) would
			// set allocs/op. BenchmarkLogCreates has the journal's share.
			noTick := func(o *Options) { o.Journal.CommitInterval = time.Hour }
			leader := leaderOf(b, tc, "/b", noTick)
			c := leader
			if mode == "forwarded" {
				c = tc.client(b, "peer", noTick)
			}
			ctx := context.Background()
			payload := make([]byte, 3901)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := c.Create(ctx, fmt.Sprintf("/b/f%d", i), 0644)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.Write(payload); err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if dir, err := c.Stat(ctx, "/b"); err != nil || c.Leads(dir.Ino) != (mode == "local") {
				b.Fatalf("%s run did not stay %s (%v)", mode, mode, err)
			}
		})
	}
}
