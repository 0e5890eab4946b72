package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// seedFile makes path at c with content, closed, written back and its lease
// returned (FlushAll does not wait for the release that follows a write-back).
func seedFile(t testing.TB, c *Client, path, content string, mode types.Mode) types.Ino {
	t.Helper()
	ctx := context.Background()
	f, err := c.Open(ctx, path, types.OWronly|types.OCreate|types.OExcl, mode)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(content)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if err := c.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		if records(c) == 0 || time.Now().After(end) {
			return f.Ino()
		}
	}
}

// carriesOpen reports whether req is a walk that carries an open.
func carriesOpen(req any) bool {
	w, ok := req.(WalkReq)
	return ok && w.Holder != ""
}

// carriesCreate reports whether req is a walk that carries a create.
func carriesCreate(req any) bool {
	w, ok := req.(WalkReq)
	return ok && w.Create != nil
}

func isDirect(f *File) bool {
	f.of.mu.Lock()
	defer f.of.mu.Unlock()
	direct, _ := f.of.lease.mode()
	return direct
}

// A recall that reaches the opener between the leader's grant and the
// WalkResp finds no record to flip: the walk did not know its inode. The
// opener notices that a recall ran, does not believe the answer's Direct=false
// and asks again with a one-name walk, so its handle ends direct and reads what
// the writer writes, then and later.
func TestRecallOvertakesWalkResp(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	leader := leaderOf(t, tc, "/d")
	c, w := tc.client(t, "c"), tc.client(t, "w")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	ino := seedFile(t, w, "/d/f", "0000", 0666)
	granted, deliver := make(chan struct{}), make(chan struct{})
	behind(t, tc, leader, c, types.RootIno, func(req any) {
		if carriesOpen(req) {
			close(granted)
			<-deliver
		}
	})
	var f *File
	opened := make(chan error, 1)
	var got map[string]int64
	go func() {
		var err error
		got = sent(reg, func() { f, err = c.Open(ctx, "/d/f", types.ORdonly, 0) })
		opened <- err
	}()
	<-granted
	if !holdsLease(t, leader, dir, ino, c.Addr()) {
		t.Fatal("the walk did not list its opener")
	}
	wf, err := w.Open(ctx, "/d/f", types.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer wf.Close()
	if _, err := wf.WriteAt([]byte("1111"), 0); err != nil { // the write lease recalls c, whose WalkResp is still on its way
		t.Fatal(err)
	}
	close(deliver)
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if got["Walk"] != 3 { // the opener's, the writer's, and the opener's second
		t.Errorf("the open sent %v, want a second walk after the overtaken one", got)
	}
	if !isDirect(f) {
		t.Fatal("the opener caches a file its leader has in direct mode")
	}
	buf := make([]byte, 4)
	for _, want := range []string{"1111", "2222"} {
		if _, err := wf.WriteAt([]byte(want), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != want {
			t.Fatalf("the opener reads %q, %v; want %q", buf, err, want)
		}
	}
}

// A WalkResp that is processed after a newer grant to the same client was
// given back names a listing the leader no longer has. The late open does not
// believe it and asks again: the leader lists the client while the late handle
// is open, and nobody once it is closed.
func TestLateWalkRespAfterNewerOpenAndClose(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "c")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	ino := seedFile(t, leader, "/d/f", "content", 0666)
	granted, deliver := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	behind(t, tc, leader, c, types.RootIno, func(req any) {
		if carriesOpen(req) && first.CompareAndSwap(false, true) {
			close(granted)
			<-deliver
		}
	})
	var late *File
	opened := make(chan error, 1)
	go func() {
		var err error
		late, err = c.Open(ctx, "/d/f", types.ORdonly, 0)
		opened <- err
	}()
	<-granted
	if got := readAll(t, c, "/d/f"); got != "content" { // a newer grant, used and closed
		t.Fatalf("read %q", got)
	}
	if err := c.FlushAll(ctx); err != nil { // and given back
		t.Fatal(err)
	}
	if holdsLease(t, leader, dir, ino, c.Addr()) {
		t.Fatal("the newer grant's return left its client listed")
	}
	close(deliver)
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	if !holdsLease(t, leader, dir, ino, c.Addr()) {
		t.Error("a handle is open and the leader does not list its client")
	}
	if got, err := io.ReadAll(late); err != nil || string(got) != "content" {
		t.Errorf("the late handle reads %q, %v", got, err)
	}
	_ = late.Close()
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := leaseOf(t, leader, dir, ino); entries != 0 || records(c) != 0 {
		t.Fatalf("after the last close: %d data leases at the leader, %d records at the client", entries, records(c))
	}
}

// The other crossing: a return decided before a walk's answer was processed
// reaches the leader after that walk's grant. It names an older grant than the
// one the leader holds and is ignored, so the handle the walk opened keeps its
// client listed.
func TestLateReturnAfterNewerWalkGrant(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "c")
	ctx := context.Background()
	dir := statIno(t, leader, "/d")
	ino := seedFile(t, leader, "/d/f", "content", 0666)
	held, deliver, regranted := make(chan struct{}), make(chan struct{}), make(chan struct{})
	proxy := rpc.Addr("proxy-hold")
	var first atomic.Bool
	srv := tc.net.ListenCtx(proxy, 4, func(ctx context.Context, req any) any {
		if _, ok := req.(CloseFileReq); ok && first.CompareAndSwap(false, true) {
			close(held) // before the leader sees it
			<-deliver
		}
		resp := leader.serve(ctx, req)
		if carriesOpen(req) {
			select {
			case <-held: // the second open's grant, while the first's return waits
				close(regranted)
			default:
			}
		}
		return resp
	})
	t.Cleanup(srv.Close)
	c.mu.Lock()
	c.remote[types.RootIno] = proxy
	c.mu.Unlock()

	if got := readAll(t, c, "/d/f"); got != "content" {
		t.Fatalf("read %q", got)
	}
	<-held
	var f *File
	opened := make(chan error, 1)
	go func() {
		var err error
		f, err = c.Open(ctx, "/d/f", types.ORdonly, 0) // waits for the return once it knows the inode
		opened <- err
	}()
	<-regranted
	close(deliver)
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(ctx); err != nil { // the return has been answered
		t.Fatal(err)
	}
	if !holdsLease(t, leader, dir, ino, c.Addr()) {
		t.Error("a handle is open and an older grant's return took its client off the list")
	}
	_ = f.Close()
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, entries := leaseOf(t, leader, dir, ino); entries != 0 {
		t.Fatalf("%d data leases left after the last close", entries)
	}
}

// holdFirstClose routes c's calls for dir through a listener that serves them
// at leader and holds the first CloseFileReq, before the leader sees it, until
// let is called; held closes once it is held. batches reports how many files
// each CloseFileReq carried, in arrival order. Every one must be answered
// with a CloseFileResp: a batch is never refused whole.
func holdFirstClose(t *testing.T, tc *testCluster, leader, c *Client, dir types.Ino) (held chan struct{}, let func(), batches func() []int) {
	t.Helper()
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	let = func() { once.Do(func() { close(release) }) }
	var mu sync.Mutex
	var sizes []int
	proxy := rpc.Addr("hold-" + c.Addr())
	srv := tc.net.ListenCtx(proxy, 4, func(ctx context.Context, req any) any {
		r, closing := req.(CloseFileReq)
		if closing {
			mu.Lock()
			sizes = append(sizes, len(r.Files))
			first := len(sizes) == 1
			mu.Unlock()
			if first {
				close(held)
				<-release
			}
		}
		resp := leader.serve(ctx, req)
		if _, ok := resp.(CloseFileResp); closing && !ok {
			t.Errorf("a CloseFileReq of %d files was answered %+v", len(r.Files), resp)
		}
		return resp
	})
	t.Cleanup(srv.Close)
	t.Cleanup(let) // before c's Close, which waits for the held message
	c.mu.Lock()
	c.remote[dir] = proxy
	c.mu.Unlock()
	return held, let, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(sizes)
	}
}

// A client's lease returns to one leader leave one message at a time, each
// carrying every return queued while the one before was in flight; returns to
// another leader do not wait for them, an Open of a file whose return is
// queued waits for it, and the leader applies each return of a message on
// its own.
func TestLeaseReturnsBatchPerLeader(t *testing.T) {
	ctx := context.Background()
	t.Run("batch", func(t *testing.T) {
		tc := newTestCluster(t)
		leader := leaderOf(t, tc, "/d")
		c := tc.client(t, "c")
		dir := statIno(t, leader, "/d")
		for i := range 64 {
			seedFile(t, leader, fmt.Sprintf("/d/f%d", i), "content", 0666)
		}
		held, let, batches := holdFirstClose(t, tc, leader, c, types.RootIno)
		readAll(t, c, "/d/f0")
		<-held
		for i := 1; i < 64; i++ {
			readAll(t, c, fmt.Sprintf("/d/f%d", i))
		}
		let()
		if err := c.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		if got := batches(); !slices.Equal(got, []int{1, 63}) {
			t.Errorf("64 returns left in messages of %v files, want [1 63]", got)
		}
		if _, _, entries := leaseOf(t, leader, dir, types.Ino{}); entries != 0 || records(c) != 0 {
			t.Errorf("after every return: %d data leases at the leader, %d records at the client", entries, records(c))
		}
	})
	t.Run("two leaders", func(t *testing.T) {
		tc := newTestCluster(t)
		a := leaderOf(t, tc, "/a") // and the root
		b, c := tc.client(t, "b"), tc.client(t, "c")
		if err := b.Mkdir(ctx, "/b", 0777); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Readdir(ctx, "/b"); err != nil {
			t.Fatal(err)
		}
		dirA, dirB := statIno(t, a, "/a"), statIno(t, b, "/b")
		if !a.Leads(dirA) || !b.Leads(dirB) {
			t.Fatal("setup: a must lead /a and b /b")
		}
		seedFile(t, a, "/a/f", "content", 0666)
		g := seedFile(t, b, "/b/g", "content", 0666)
		held, let, batches := holdFirstClose(t, tc, a, c, types.RootIno)
		readAll(t, c, "/a/f")
		<-held
		readAll(t, c, "/b/g")
		for end := time.Now().Add(5 * time.Second); holdsLease(t, b, dirB, g, c.Addr()); time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatal("b's return waited for the message held on its way to a")
			}
		}
		let()
		if err := c.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		if got := batches(); !slices.Equal(got, []int{1}) {
			t.Errorf("a was sent messages of %v files, want [1]", got)
		}
		if _, _, entries := leaseOf(t, a, dirA, types.Ino{}); entries != 0 || records(c) != 0 {
			t.Errorf("after every return: %d data leases at a, %d records at the client", entries, records(c))
		}
	})
	t.Run("reopen", func(t *testing.T) {
		tc := newTestCluster(t)
		leader := leaderOf(t, tc, "/d")
		c := tc.client(t, "c")
		dir := statIno(t, leader, "/d")
		seedFile(t, leader, "/d/first", "content", 0666)
		ino := seedFile(t, leader, "/d/f", "content", 0666)
		held, let, batches := holdFirstClose(t, tc, leader, c, types.RootIno)
		readAll(t, c, "/d/first")
		<-held
		readAll(t, c, "/d/f") // its return queued behind the held message
		var f *File
		opened := make(chan error, 1)
		go func() {
			var err error
			f, err = c.Open(ctx, "/d/f", types.ORdonly, 0)
			opened <- err
		}()
		select {
		case err := <-opened:
			t.Fatalf("the reopen did not wait for the queued return: %v", err)
		case <-time.After(50 * time.Millisecond):
		}
		let()
		if err := <-opened; err != nil {
			t.Fatal(err)
		}
		if err := c.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		if !holdsLease(t, leader, dir, ino, c.Addr()) {
			t.Error("a handle is open and the queued return took its client off the list")
		}
		if got, err := io.ReadAll(f); err != nil || string(got) != "content" {
			t.Errorf("the reopened handle reads %q, %v", got, err)
		}
		_ = f.Close()
		if err := c.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		if got := batches(); !slices.Equal(got, []int{1, 1, 1}) {
			t.Errorf("messages of %v files, want [1 1 1]", got)
		}
		if _, _, entries := leaseOf(t, leader, dir, ino); entries != 0 || records(c) != 0 {
			t.Errorf("after the last close: %d data leases at the leader, %d records at the client", entries, records(c))
		}
	})
	t.Run("dropped item", func(t *testing.T) {
		tc := newTestCluster(t)
		leader := leaderOf(t, tc, "/d")
		c := tc.client(t, "c")
		if err := leader.Mkdir(ctx, "/e", 0777); err != nil {
			t.Fatal(err)
		}
		if _, err := leader.Readdir(ctx, "/e"); err != nil {
			t.Fatal(err)
		}
		dirD, dirE := statIno(t, leader, "/d"), statIno(t, leader, "/e")
		seedFile(t, leader, "/d/first", "content", 0666)
		seedFile(t, leader, "/e/g", "content", 0666)
		seedFile(t, leader, "/d/f", "content", 0666)
		held, let, batches := holdFirstClose(t, tc, leader, c, types.RootIno)
		readAll(t, c, "/d/first")
		<-held
		readAll(t, c, "/e/g")
		readAll(t, c, "/d/f")
		if err := leader.ReleaseDir(dirE); err != nil {
			t.Fatal(err)
		}
		if leader.Leads(dirE) {
			t.Fatal("setup: the leader still leads /e")
		}
		let()
		if err := c.FlushAll(ctx); err != nil {
			t.Fatal(err)
		}
		if got := batches(); !slices.Equal(got, []int{1, 2}) {
			t.Errorf("messages of %v files, want [1 2]", got)
		}
		if _, _, entries := leaseOf(t, leader, dirD, types.Ino{}); entries != 0 || records(c) != 0 {
			t.Errorf("the item after the dropped one: %d data leases left in /d, %d records at the client", entries, records(c))
		}
	})
}

// A walk's answer carries the size the leader had at the grant. If this
// client has since published a larger one through another handle of the same
// file, the late open must not bring the old size back: the two handles share
// one size, and it is the published one.
func TestLateWalkRespKeepsPublishedSize(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	c := tc.client(t, "c")
	ctx := context.Background()
	seedFile(t, leader, "/d/f", "0123", 0666)
	granted, deliver := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	behind(t, tc, leader, c, types.RootIno, func(req any) {
		if carriesOpen(req) && armed.CompareAndSwap(true, false) {
			close(granted)
			<-deliver
		}
	})
	w, err := c.Open(ctx, "/d/f", types.OWronly|types.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	armed.Store(true)
	var late *File
	opened := make(chan error, 1)
	go func() {
		var err error
		late, err = c.Open(ctx, "/d/f", types.ORdonly, 0)
		opened <- err
	}()
	<-granted // the leader has answered: four bytes
	if _, err := w.Write([]byte("456789")); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil { // published: ten bytes, and nothing unpublished left
		t.Fatal(err)
	}
	close(deliver)
	if err := <-opened; err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	if got, err := io.ReadAll(late); err != nil || string(got) != "0123456789" {
		t.Fatalf("the late handle reads %q (size %d), %v; want the ten bytes this client published", got, late.Size(), err)
	}
}

// What a walk grants is what an open would: nothing for a symlink (the
// leader of its target's directory grants), a directory, a file the
// credentials may not read, or an open that can only succeed by creating; and
// a granted handle truncates as any other.
func TestWalkGrantsOnlyWhatOpenWould(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	ctx := context.Background()
	a := tc.client(t, "a", func(o *Options) { o.Cred = types.Cred{} })
	b := tc.client(t, "b", func(o *Options) { o.Cred = types.Cred{} })
	c := tc.client(t, "c", func(o *Options) { o.Cred = types.Cred{Uid: 2000, Gid: 2000} })
	for _, dir := range []string{"/a", "/b", "/a/sub"} {
		if err := a.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	target := seedFile(t, b, "/b/f", "under another leader", 0666)
	seedFile(t, a, "/a/secret", "0600", 0600)
	plain := seedFile(t, a, "/a/plain", "to be truncated", 0666)
	if err := a.Symlink(ctx, "/b/f", "/a/link"); err != nil {
		t.Fatal(err)
	}
	dirA, dirB := statIno(t, a, "/a"), statIno(t, a, "/b")
	if !a.Leads(types.RootIno) || !a.Leads(dirA) || !b.Leads(dirB) {
		t.Fatal("setup: a should lead / and /a, b should lead /b")
	}
	// listedAt is how many of dir's files its leader lists c for; the seeding
	// clients' own write-backs may still hold theirs.
	listedAt := func(leader *Client, dir types.Ino) (n int) {
		ld, _ := leader.ledDirFor(dir)
		ld.opMu.Lock()
		defer ld.opMu.Unlock()
		for ino := range ld.leases {
			if ld.leases.holds(ino, c.Addr()) {
				n++
			}
		}
		return n
	}
	if _, err := c.Stat(ctx, "/b/f"); err != nil { // c learns both routes
		t.Fatal(err)
	}

	var f *File
	got := sent(reg, func() {
		var err error
		if f, err = c.Open(ctx, "/a/link", types.ORdonly, 0); err != nil {
			t.Fatal(err)
		}
	})
	if want := map[string]int64{"Walk": 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("open through a symlink sent %v, want %v", got, want)
	}
	if !holdsLease(t, b, dirB, target, c.Addr()) || listedAt(a, dirA) != 0 {
		t.Errorf("the symlink's leader lists %d holders, the target's leader lists the opener: %v",
			listedAt(a, dirA), holdsLease(t, b, dirB, target, c.Addr()))
	}
	if content, err := io.ReadAll(f); err != nil || string(content) != "under another leader" {
		t.Errorf("read through the symlink: %q, %v", content, err)
	}
	_ = f.Close()

	for _, tt := range []struct {
		path  string
		flags types.OpenFlag
		want  error
	}{
		{"/a/sub", types.ORdonly, types.ErrIsDir},
		{"/a/secret", types.ORdonly, types.ErrAccess},
		{"/a/plain", types.OWronly | types.OCreate | types.OExcl, types.ErrExist},
	} {
		if f, err := c.Open(ctx, tt.path, tt.flags, 0644); !errors.Is(err, tt.want) {
			if err == nil {
				_ = f.Close()
			}
			t.Errorf("open %s: %v, want %v", tt.path, err, tt.want)
		}
	}
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if n := listedAt(a, dirA) + listedAt(b, dirB) + records(c); n != 0 {
		t.Errorf("refused opens and a closed handle left %d leases and records", n)
	}

	got = sent(reg, func() {
		var err error
		if f, err = c.Open(ctx, "/a/plain", types.ORdwr|types.OTrunc, 0); err != nil {
			t.Fatal(err)
		}
	})
	if want := map[string]int64{"Walk": 1, "SetAttr": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("O_RDWR|O_TRUNC sent %v, want %v", got, want)
	}
	if !holdsLease(t, a, dirA, plain, c.Addr()) || f.Size() != 0 {
		t.Errorf("the truncating handle: listed %v, size %d", holdsLease(t, a, dirA, plain, c.Addr()), f.Size())
	}
	if _, err := f.Write([]byte("anew")); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if err := c.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if content := readAll(t, a, "/a/plain"); content != "anew" {
		t.Errorf("after O_TRUNC and a write the leader reads %q", content)
	}
}

// Giving a data lease back never asks the lease manager who leads the
// directory: that can end with this client leading it again, just to tell
// itself a lease is back. The return goes to the process that listed the
// client, or nowhere.
func TestLeaseReturnTakesNoDirectoryLease(t *testing.T) {
	for _, how := range []string{"released", "route invalidated"} {
		t.Run(how, func(t *testing.T) {
			tc := newTestCluster(t)
			ctx := context.Background()
			a, c := tc.client(t, "a"), tc.client(t, "c")
			if err := a.Mkdir(ctx, "/dir", 0777); err != nil { // a leads /, so c's lease keeper has nothing to extend
				t.Fatal(err)
			}
			leader := c
			if how == "route invalidated" {
				leader = a
			}
			seedFile(t, leader, "/dir/file", "x", 0666)
			dir := statIno(t, a, "/dir")
			if !leader.Leads(dir) {
				t.Fatalf("setup: %s should lead /dir", leader.Addr())
			}
			f, err := c.Open(ctx, "/dir/file", types.ORdonly, 0)
			if err != nil {
				t.Fatal(err)
			}
			if how == "released" {
				if err := c.ReleaseDir(dir); err != nil {
					t.Fatal(err)
				}
			} else {
				c.invalidateLeader(dir)
			}
			before := c.StatCounters().LeaseAcquires.Load()
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if err := c.FlushAll(ctx); err != nil {
				t.Fatal(err)
			}
			if asked := c.StatCounters().LeaseAcquires.Load() - before; asked != 0 || c.Leads(dir) {
				t.Errorf("the close asked the lease manager %d times; c leads /dir: %v", asked, c.Leads(dir))
			}
			if how == "route invalidated" && holdsLease(t, a, dir, f.Ino(), c.Addr()) {
				t.Error("the return did not reach the leader that listed the client")
			}
			if n := records(c); n != 0 {
				t.Errorf("%d records left", n)
			}
		})
	}
}

// BenchmarkForwardedOpenReadClose is the read phase of mdtest-hard: a
// 3,901-byte file under a remote leader opened, read and closed per iteration
// over a warm route, observability off, the same file every time (one) or
// each of 256 in turn (many). The leases go back off the caller's stack, so
// the loop ends with the FlushAll that waits for them, inside the timer. A
// call is a walk, waited for, and a lease return: one message each in one,
// and in many, where returns to the leader queue behind the one in flight,
// one message for every return queued meanwhile.
func BenchmarkForwardedOpenReadClose(b *testing.B) {
	for _, files := range []int{1, 256} {
		name := "one"
		if files > 1 {
			name = "many"
		}
		b.Run(name, func(b *testing.B) {
			tc := newTestClusterAt(b, 2<<20)
			leader := leaderOf(b, tc, "/b")
			c := tc.client(b, "peer")
			ctx := context.Background()
			paths := make([]string, files)
			for i := range paths {
				paths[i] = fmt.Sprintf("/b/f%d", i)
				seedFile(b, c, paths[i], string(make([]byte, 3901)), 0644)
			}
			buf := make([]byte, 4096)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := c.Open(ctx, paths[i%files], types.ORdonly, 0)
				if err != nil {
					b.Fatal(err)
				}
				if n, _ := f.ReadAt(buf, 0); n != 3901 {
					b.Fatalf("read %d bytes", n)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.FlushAll(ctx); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if dir, err := c.Stat(ctx, "/b"); err != nil || !leader.Leads(dir.Ino) || c.StatCounters().LocalMetaOps.Load() != 0 {
				b.Fatalf("the run did not stay forwarded (%v)", err)
			}
		})
	}
}
