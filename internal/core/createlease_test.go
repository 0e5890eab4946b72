package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// leaseOf returns who the leader of dir lists for ino's data lease.
func leaseOf(t *testing.T, leader *Client, dir, ino types.Ino) (holders []rpc.Addr, writer rpc.Addr, entries int) {
	t.Helper()
	ld, ok := leader.ledDirFor(dir)
	if !ok {
		t.Fatalf("%s does not lead %s", leader.Addr(), dir.Short())
	}
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	fl := ld.leases[ino]
	for h := range fl.holders {
		holders = append(holders, h)
	}
	return holders, fl.writer, len(ld.leases)
}

func statIno(t *testing.T, c *Client, path string) types.Ino {
	t.Helper()
	node, err := c.Stat(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return node.Ino
}

// records is how many open-file records c keeps.
func records(c *Client) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open)
}

// behind routes c's calls for dir through a listener that hands each one to
// the leader and calls after with the request once the leader has served it,
// before the answer leaves: the place where an answer is delayed or lost.
func behind(t *testing.T, tc *testCluster, leader, c *Client, dir types.Ino, after func(req any)) rpc.Addr {
	t.Helper()
	proxy := rpc.Addr("proxy-"+c.Addr()) + rpc.Addr("-"+dir.Short())
	srv := tc.net.ListenCtx(proxy, 4, func(ctx context.Context, req any) any {
		resp := leader.serve(ctx, req)
		after(req)
		return resp
	})
	t.Cleanup(srv.Close)
	c.mu.Lock()
	c.remote[dir] = proxy
	c.mu.Unlock()
	return proxy
}

// The mode a file is created with binds later opens, not the descriptor that
// creates it (cp -p, install -m 444, tar -x of a read-only member): the
// creating open succeeds whatever the mode, its writes and its close too, and
// the next open of the same user is refused.
func TestCreateIgnoresOwnMode(t *testing.T) {
	for _, route := range []string{"local", "forwarded"} {
		for _, mode := range []types.Mode{0444, 0000} {
			t.Run(fmt.Sprintf("%s/%04o", route, mode), func(t *testing.T) {
				tc := newTestCluster(t)
				ctx := context.Background()
				root := tc.client(t, "root", func(o *Options) { o.Cred = types.Cred{} })
				user := tc.client(t, "user", func(o *Options) { o.Cred = types.Cred{Uid: 2000, Gid: 2000} })
				if err := root.Mkdir(ctx, "/d", 0777); err != nil {
					t.Fatal(err)
				}
				leader := root
				if route == "local" {
					leader = user
				}
				if _, err := leader.Readdir(ctx, "/d"); err != nil {
					t.Fatal(err)
				}
				f, err := user.Open(ctx, "/d/ro", types.OWronly|types.OCreate|types.OExcl, mode)
				if err != nil {
					t.Fatalf("the creating open: %v", err)
				}
				if user.Leads(statIno(t, root, "/d")) != (route == "local") {
					t.Fatalf("the %s run did not stay %s", route, route)
				}
				if _, err := f.Write([]byte("read-only member")); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				if node, err := root.Stat(ctx, "/d/ro"); err != nil || node.Mode&0777 != mode {
					t.Fatalf("stat: %+v, %v; want mode %04o", node, err, mode)
				}
				if got := readAll(t, root, "/d/ro"); got != "read-only member" {
					t.Fatalf("root reads %q", got)
				}
				if _, err := user.Open(ctx, "/d/ro", types.OWronly, 0); !errors.Is(err, types.ErrAccess) {
					t.Fatalf("a second O_WRONLY open by the same user: %v, want EACCES", err)
				}
			})
		}
	}
}

// A recall that reaches the opener between the leader's grant and the answer
// to the walk that made the file finds the record taken before the walk was
// sent: the opener ends up in direct mode without ever having cached, and the
// client whose open caused the recall reads every byte.
func TestRecallOvertakesCreateResp(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c, other := tc.client(t, "c"), tc.client(t, "other")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	granted, deliver := make(chan struct{}), make(chan struct{})
	behind(t, tc, leader, c, types.RootIno, func(req any) {
		if carriesCreate(req) {
			close(granted)
			<-deliver
		}
	})
	var f *File
	opened := make(chan error, 1)
	go func() {
		var err error
		f, err = c.Open(ctx, "/d/f", types.ORdwr|types.OCreate, 0666)
		opened <- err
	}()
	<-granted
	if holders, writer, _ := leaseOf(t, leader, dir, statIno(t, leader, "/d/f")); len(holders) != 1 || writer != c.Addr() {
		t.Fatalf("after the create the leader lists %v, writer %q", holders, writer)
	}
	early, err := other.Open(ctx, "/d/f", types.ORdonly, 0) // recalls c, whose answer is still on its way
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	close(deliver)
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	f.of.mu.Lock()
	direct, hasWrite := f.of.lease.mode()
	f.of.mu.Unlock()
	if !direct || hasWrite {
		t.Fatalf("the opener has direct=%v hasWrite=%v, want direct and no write lease", direct, hasWrite)
	}
	if _, err := f.Write([]byte("every byte")); err != nil {
		t.Fatal(err)
	}
	if c.data.Dirty(f.Ino()) {
		t.Error("the recalled opener cached its write")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, other, "/d/f"); got != "every byte" {
		t.Fatalf("the second client reads %q", got)
	}
}

// O_CREAT without write intent lists a holder and no writer, so a second
// reader causes no recall; with it the creator is the writer.
func TestCreateLeaseFollowsAccessMode(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	leader := leaderOf(t, tc, "/d")
	c, other := tc.client(t, "c"), tc.client(t, "other")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	for _, tt := range []struct {
		name   string
		flags  types.OpenFlag
		writer rpc.Addr
	}{{"ro", types.ORdonly | types.OCreate, ""}, {"rw", types.ORdwr | types.OCreate | types.OExcl, c.Addr()}} {
		var f *File
		got := sent(reg, func() {
			var err error
			if f, err = c.Open(ctx, "/d/"+tt.name, tt.flags, 0644); err != nil {
				t.Fatal(err)
			}
		})
		if want := map[string]int64{"Walk": 1}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the creating open sent %v, want %v", tt.name, got, want)
		}
		holders, writer, _ := leaseOf(t, leader, dir, f.Ino())
		if len(holders) != 1 || holders[0] != c.Addr() || writer != tt.writer {
			t.Errorf("%s: the leader lists %v, writer %q; want %s, writer %q", tt.name, holders, writer, c.Addr(), tt.writer)
		}
		got = sent(reg, func() {
			g, err := other.Open(ctx, "/d/"+tt.name, types.ORdonly, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = g.Close()
		})
		if recalled := got["FlushCache"] > 0; recalled != (tt.writer != "") {
			t.Errorf("%s: a second reader sent %v", tt.name, got)
		}
		_ = f.Close()
		for _, closer := range []*Client{c, other} { // their returns are counted here, not in the next round
			if err := closer.FlushAll(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// A file that exists is attached to as before: O_CREAT|O_TRUNC without O_EXCL
// is granted by its walk, as a plain open is, and truncates; and a create that
// finds the name taken makes nothing and leaves no provisional record.
func TestCreateOfExistingFileAttaches(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "c")
	ctx := context.Background()
	old, err := leader.Create(ctx, "/d/f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Write([]byte("to be truncated")); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := leader.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	dir, ino := statIno(t, leader, "/d"), statIno(t, leader, "/d/f")

	f, err := c.Open(ctx, "/d/f", types.OWronly|types.OCreate, 0644)
	if err != nil || f.Ino() != ino {
		t.Fatalf("O_CREAT of an existing name: %v; want the existing inode %s", err, ino.Short())
	}
	if n := records(c); n != 1 {
		t.Fatalf("%d records, want the existing file's alone: the create made nothing", n)
	}
	_ = f.Close()
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if holdsLease(t, leader, dir, ino, c.Addr()) || records(c) != 0 {
		t.Fatal("the closed handle left its lease or its record")
	}

	got := sent(reg, func() {
		if f, err = c.Open(ctx, "/d/f", types.OWronly|types.OCreate|types.OTrunc, 0644); err != nil {
			t.Fatal(err)
		}
	})
	if want := map[string]int64{"Walk": 1, "SetAttr": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("O_CREAT|O_TRUNC on an existing file sent %v, want %v", got, want)
	}
	if f.Size() != 0 {
		t.Errorf("size %d after O_TRUNC", f.Size())
	}
	_ = f.Close()
	if node, err := leader.Stat(ctx, "/d/f"); err != nil || node.Size != 0 {
		t.Errorf("the leader has %+v, %v after O_TRUNC", node, err)
	}
}

// The answer to a walk that made a file, lost on the way: the opener sends the
// walk again, and the leader knows its own work by the inode number, O_EXCL or
// not, and answers as it did the first time.
func TestLostCreateRespIsRetried(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "c")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	plan := rpc.NewFaultPlan(tc.env, 1)
	tc.net.SetFaultPlan(plan)
	defer tc.net.SetFaultPlan(nil)
	var proxy rpc.Addr
	proxy = behind(t, tc, leader, c, types.RootIno, func(req any) {
		if carriesCreate(req) {
			plan.Partition([]rpc.Addr{proxy}, []rpc.Addr{c.Addr()}) // the retry goes to the leader itself
		}
	})
	f, err := c.Open(ctx, "/d/f", types.OWronly|types.OCreate|types.OExcl, 0644)
	if err != nil {
		t.Fatalf("open after a lost answer: %v", err)
	}
	if holders, writer, _ := leaseOf(t, leader, dir, f.Ino()); len(holders) != 1 || writer != c.Addr() {
		t.Fatalf("the leader lists %v, writer %q", holders, writer)
	}
	if _, err := f.Write([]byte("once")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, leader, "/d/f"); got != "once" {
		t.Fatalf("content %q", got)
	}
}

// No answer at all: the open fails, the file may exist, and the lease the
// leader may have granted goes back with a CloseFileReq, so nothing is left
// listed for a handle that was never returned.
func TestUnansweredCreateReturnsLease(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "c")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	plan := rpc.NewFaultPlan(tc.env, 1)
	tc.net.SetFaultPlan(plan)
	defer tc.net.SetFaultPlan(nil)
	var proxy rpc.Addr
	proxy = behind(t, tc, leader, c, types.RootIno, func(req any) {
		if carriesCreate(req) {
			plan.Partition([]rpc.Addr{proxy, leader.Addr()}, []rpc.Addr{c.Addr()})
		}
	})
	if f, err := c.Open(ctx, "/d/f", types.OWronly|types.OCreate, 0644); err == nil {
		_ = f.Close()
		t.Fatal("the open succeeded with every answer lost")
	}
	plan.HealAll()
	if err := c.FlushAll(ctx); err != nil { // the return is off the caller's stack
		t.Fatal(err)
	}
	if _, err := leader.Stat(ctx, "/d/f"); err != nil {
		t.Fatalf("the create ran at the leader, its answer was lost: %v", err)
	}
	if _, _, entries := leaseOf(t, leader, dir, types.Ino{}); entries != 0 {
		t.Fatalf("%d data leases left at the leader", entries)
	}
	if n := records(c); n != 0 {
		t.Fatalf("%d records left at the opener", n)
	}
}

// Unlinking a file that was just created and is still open drops the lease
// the create granted; the late close finds nothing to return.
func TestUnlinkOfCreatedOpenFile(t *testing.T) {
	for _, route := range []string{"local", "forwarded"} {
		t.Run(route, func(t *testing.T) {
			tc := newTestCluster(t)
			leader := leaderOf(t, tc, "/d")
			c := leader
			if route == "forwarded" {
				c = tc.client(t, "c")
			}
			ctx := context.Background()
			f, err := c.Create(ctx, "/d/f", 0644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("doomed")); err != nil {
				t.Fatal(err)
			}
			dir := statIno(t, leader, "/d")
			if !holdsLease(t, leader, dir, f.Ino(), c.Addr()) {
				t.Fatal("the create did not list its opener")
			}
			if err := c.Unlink(ctx, "/d/f"); err != nil {
				t.Fatal(err)
			}
			if _, _, entries := leaseOf(t, leader, dir, f.Ino()); entries != 0 {
				t.Fatalf("%d data leases left after the unlink", entries)
			}
			_ = f.Close() // its SetAttr finds no name: the file is gone
			if err := c.FlushAll(ctx); err != nil {
				t.Fatal(err)
			}
			if _, _, entries := leaseOf(t, leader, dir, f.Ino()); entries != 0 {
				t.Fatalf("%d data leases left after the close", entries)
			}
		})
	}
}
