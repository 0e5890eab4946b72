package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// leaderCalls counts, per message name, the client-to-leader calls the
// network behind reg has carried so far. Lease-manager traffic is not in it.
func leaderCalls(reg *obs.Registry) map[string]int64 {
	out := map[string]int64{}
	snap := reg.Snapshot()
	for _, m := range wireMessages {
		name, isReq := strings.CutSuffix(reflect.TypeOf(m).Name(), "Req")
		if n := snap.Histograms["rpc.call."+name].Count; isReq && n > 0 {
			out[name] = n
		}
	}
	return out
}

// sent runs fn and returns the client-to-leader calls made meanwhile.
func sent(reg *obs.Registry, fn func()) map[string]int64 {
	before := leaderCalls(reg)
	fn()
	after := leaderCalls(reg)
	for name, n := range before {
		if after[name] -= n; after[name] == 0 {
			delete(after, name)
		}
	}
	return after
}

// walkTree is /x/y/z/f with leaders alternating down the path: a leads /,
// /x/y and /x/y/z, b leads /x. Every directory is 0777, so a client with
// another uid can walk it.
type walkTree struct {
	tc      *testCluster
	reg     *obs.Registry // the network's: counts every call
	a, b    *Client
	x, y, z types.Ino
}

func newWalkTree(t *testing.T) *walkTree {
	t.Helper()
	tc := newTestCluster(t)
	wt := &walkTree{tc: tc, reg: obs.NewRegistry()}
	tc.net.SetObs(wt.reg)
	wt.a, wt.b = tc.client(t, "a"), tc.client(t, "b")
	ctx := context.Background()
	// A mkdir takes the lease of the parent it creates in, if nobody has it.
	for _, step := range []struct {
		c    *Client
		path string
	}{{wt.a, "/x"}, {wt.b, "/x/y"}, {wt.a, "/x/y/z"}} {
		if err := step.c.Mkdir(ctx, step.path, 0777); err != nil {
			t.Fatal(err)
		}
	}
	wt.create(t, wt.a, "/x/y/z/f")
	wt.x, wt.y, wt.z = wt.ino(t, "/x"), wt.ino(t, "/x/y"), wt.ino(t, "/x/y/z")
	for _, want := range []struct {
		c   *Client
		dir types.Ino
	}{{wt.a, types.RootIno}, {wt.b, wt.x}, {wt.a, wt.y}, {wt.a, wt.z}} {
		if !want.c.Leads(want.dir) {
			t.Fatalf("setup: %s does not lead %s", want.c.Addr(), want.dir.Short())
		}
	}
	return wt
}

func (wt *walkTree) create(t *testing.T, c *Client, path string) {
	t.Helper()
	f, err := c.Create(context.Background(), path, 0666)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func (wt *walkTree) ino(t *testing.T, path string) types.Ino {
	t.Helper()
	node, err := wt.a.Stat(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	return node.Ino
}

// A stat costs one message per change of leader on its path, however many
// components each leader answers for.
func TestWalkOneMessagePerLeader(t *testing.T) {
	wt := newWalkTree(t)
	c := wt.tc.client(t, "c")
	ctx := context.Background()
	if _, err := c.Stat(ctx, "/x/y/z/f"); err != nil { // learns who leads what
		t.Fatal(err)
	}
	for path, want := range map[string]int64{"/x": 1, "/x/y": 2, "/x/y/z": 3, "/x/y/z/f": 3} {
		got := sent(wt.reg, func() {
			if _, err := c.Stat(ctx, path); err != nil {
				t.Error(err)
			}
		})
		if !reflect.DeepEqual(got, map[string]int64{"Walk": want}) {
			t.Errorf("stat %s sent %v, want %d Walk", path, got, want)
		}
	}
	for _, dir := range []types.Ino{types.RootIno, wt.x, wt.y, wt.z} {
		if c.Leads(dir) {
			t.Errorf("the walker took the lease of %s", dir.Short())
		}
	}
}

// An error inside one leader's run of directories belongs to the component
// that raised it, and only ENOENT on the last one is the state a create needs.
func TestWalkErrorsNameTheirComponent(t *testing.T) {
	wt := newWalkTree(t)
	ctx := context.Background()
	if err := wt.a.Mkdir(ctx, "/x/y/z/priv", 0700); err != nil {
		t.Fatal(err)
	}
	wt.create(t, wt.a, "/x/y/z/priv/f")
	priv := wt.ino(t, "/x/y/z/priv")
	if !wt.a.Leads(priv) {
		t.Fatal("setup: a does not lead /x/y/z/priv")
	}
	other := types.Cred{Uid: 2000, Gid: 2000}
	c := wt.tc.client(t, "c", func(o *Options) { o.Cred = other })

	for _, tt := range []struct {
		path, component string
		want            error
	}{
		{"/x/y/z/nope/f", `"nope"`, types.ErrNotExist},
		{"/x/y/z/f/g", `"f"`, types.ErrNotDir},
		{"/x/y/z/priv/f", `"f"`, types.ErrAccess},
	} {
		_, err := c.Stat(ctx, tt.path)
		if !errors.Is(err, tt.want) || !strings.Contains(err.Error(), tt.component) {
			t.Errorf("stat %s: %v, want %v at %s", tt.path, err, tt.want, tt.component)
		}
		if _, err := c.Open(ctx, tt.path, types.OWronly|types.OCreate, 0644); !errors.Is(err, tt.want) {
			t.Errorf("open(O_CREAT) %s: %v, want %v", tt.path, err, tt.want)
		}
	}

	// The leader itself can search priv; it must refuse on the requester's
	// credentials, and stop there with the error on the name after priv.
	names := []string{"z", "priv", "f"}
	resp := wt.a.serve(ctx, WalkReq{Dir: wt.y, Names: names, Cred: other}).(WalkResp)
	if len(resp.Inodes) != 2 || resp.Err != types.Errno(types.ErrAccess) {
		t.Errorf("walk as uid 2000: %d inodes, err %q; want z and priv, then EACCES", len(resp.Inodes), resp.Err)
	}
	resp = wt.a.serve(ctx, WalkReq{Dir: wt.y, Names: names, Cred: wt.a.opts.Cred}).(WalkResp)
	if len(resp.Inodes) != 3 || resp.Err != "" {
		t.Errorf("walk as the owner: %d inodes, err %q; want all three", len(resp.Inodes), resp.Err)
	}
}

// ENOENT on the last name is an answer: Open(O_CREAT) creates there.
func TestWalkMissingLastNameCreates(t *testing.T) {
	wt := newWalkTree(t)
	c := wt.tc.client(t, "c")
	ctx := context.Background()
	if _, err := c.Stat(ctx, "/x/y/z/new"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("stat of a missing file: %v", err)
	}
	wt.create(t, c, "/x/y/z/new")
	if _, err := wt.a.Stat(ctx, "/x/y/z/new"); err != nil {
		t.Fatalf("the leader does not see the forwarded create: %v", err)
	}
}

// A symlink in the middle of a leader's run ends the run, and the walk goes
// on from its target.
func TestWalkSymlinksMidPath(t *testing.T) {
	wt := newWalkTree(t)
	c := wt.tc.client(t, "c")
	ctx := context.Background()
	if err := wt.a.Symlink(ctx, "/x/y/z", "/x/y/abs"); err != nil {
		t.Fatal(err)
	}
	if err := wt.a.Symlink(ctx, "z", "/x/y/rel"); err != nil {
		t.Fatal(err)
	}
	want := wt.ino(t, "/x/y/z/f")
	for _, path := range []string{"/x/y/abs/f", "/x/y/rel/f", "/x/y/rel/../abs/f"} {
		if node, err := c.Stat(ctx, path); err != nil || node.Ino != want {
			t.Errorf("stat %s: %v, %v; want the inode of /x/y/z/f", path, node, err)
		}
	}
	if node, err := c.Lstat(ctx, "/x/y/rel"); err != nil || node.Type != types.TypeSymlink {
		t.Errorf("lstat /x/y/rel: %v, %v; want the link itself", node, err)
	}
}

// A leader that has lost a directory in the middle of its run answers up to
// it. The walker finds that directory's leader as for any other (here it
// becomes the leader), also when it still believes the old one leads, and
// the application sees no ESTALE.
func TestWalkPastALostLease(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	a, c := tc.client(t, "a"), tc.client(t, "c")
	ctx := context.Background()
	for _, dir := range []string{"/m", "/m/n", "/k", "/k/n"} {
		if err := a.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/m/n/f", "/k/n/f"} {
		f, err := a.Create(ctx, path, 0666)
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		if got := sent(reg, func() { _, err = c.Stat(ctx, path) }); err != nil || !reflect.DeepEqual(got, map[string]int64{"Walk": 1}) {
			t.Fatalf("stat %s before the loss: %v, sent %v; want one Walk", path, err, got)
		}
	}
	if _, err := c.Readdir(ctx, "/k"); err != nil { // c now holds a route: a leads /k
		t.Fatal(err)
	}
	// One walk up to the lost directory and one from the directory below it;
	// the stale route to /k costs a third, which a refuses.
	for _, tt := range []struct {
		dir   string
		walks int64
	}{{"/m", 2}, {"/k", 3}} {
		node, err := a.Stat(ctx, tt.dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.ReleaseDir(node.Ino); err != nil {
			t.Fatal(err)
		}
		got := sent(reg, func() { _, err = c.Stat(ctx, tt.dir+"/n/f") })
		if err != nil {
			t.Fatalf("stat %s/n/f past the lost lease: %v", tt.dir, err)
		}
		if !reflect.DeepEqual(got, map[string]int64{"Walk": tt.walks}) {
			t.Errorf("stat %s/n/f sent %v, want %d Walk", tt.dir, got, tt.walks)
		}
		if !c.Leads(node.Ino) || a.Leads(node.Ino) {
			t.Errorf("%s: the walker should lead it now (c %v, a %v)", tt.dir, c.Leads(node.Ino), a.Leads(node.Ino))
		}
	}
}

// In permission-caching mode one answer fills the cache for every directory
// it crossed, and a missing name leaves one negative entry.
func TestWalkFillsPermCache(t *testing.T) {
	wt := newWalkTree(t)
	ctx := context.Background()
	if err := wt.a.Mkdir(ctx, "/x/y/z/d", 0777); err != nil {
		t.Fatal(err)
	}
	pc := wt.tc.client(t, "pc", func(o *Options) { o.PermCache = true })
	stat := func(path string, want error) map[string]int64 {
		return sent(wt.reg, func() {
			if _, err := pc.Stat(ctx, path); !errors.Is(err, want) {
				t.Errorf("stat %s: %v, want %v", path, err, want)
			}
		})
	}
	if got := stat("/x/y/z/d", nil); got["Walk"] != 3 {
		t.Fatalf("first stat sent %v, want 3 Walk", got)
	}
	if got := stat("/x/y/z/d", nil); len(got) != 0 {
		t.Errorf("second stat sent %v, want nothing: a's answer for z and d should have filled /x/y and /x/y/z", got)
	}
	if got := stat("/x/y/z/f", nil); !reflect.DeepEqual(got, map[string]int64{"Walk": 1}) {
		t.Errorf("stat of a file sent %v, want the one Walk for its attributes", got)
	}
	if got := stat("/x/y/z/gone", types.ErrNotExist); got["Walk"] != 1 {
		t.Errorf("stat of a missing name sent %v, want 1 Walk", got)
	}
	if got := stat("/x/y/z/gone", types.ErrNotExist); len(got) != 0 {
		t.Errorf("second stat of a missing name sent %v, want nothing", got)
	}
	negative := 0
	pc.mu.Lock()
	for _, pe := range pc.pcache {
		for _, node := range pe.lookups {
			if node == nil {
				negative++
			}
		}
	}
	pc.mu.Unlock()
	if negative != 1 {
		t.Errorf("%d negative entries, want 1", negative)
	}
	// The negative entry does not stand in the way of a create, which drops it.
	wt.create(t, pc, "/x/y/z/gone")
	if got := stat("/x/y/z/gone", nil); got["Walk"] != 1 {
		t.Errorf("stat after create sent %v, want 1 Walk", got)
	}
}

// A create rides every walk message of its path, not only the first: here
// the leader of / hands the walk on at /x, which b leads, and b makes the file
// and lists its opener. The open sends those two walks and nothing else.
func TestCreateRidesEveryWalk(t *testing.T) {
	wt := newWalkTree(t)
	c := wt.tc.client(t, "c")
	ctx := context.Background()
	if _, err := c.Stat(ctx, "/x/y"); err != nil { // learns who leads / and /x
		t.Fatal(err)
	}
	var carried atomic.Int32
	count := func(req any) {
		if carriesCreate(req) {
			carried.Add(1)
		}
	}
	behind(t, wt.tc, wt.a, c, types.RootIno, count)
	behind(t, wt.tc, wt.b, c, wt.x, count)
	var f *File
	got := sent(wt.reg, func() {
		var err error
		if f, err = c.Open(ctx, "/x/new", types.OWronly|types.OCreate|types.OExcl, 0644); err != nil {
			t.Fatal(err)
		}
	})
	if want := map[string]int64{"Walk": 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("the create sent %v, want %v", got, want)
	}
	if n := carried.Load(); n != 2 {
		t.Errorf("%d walks carried the create, want both", n)
	}
	if holders, writer, _ := leaseOf(t, wt.b, wt.x, f.Ino()); len(holders) != 1 || writer != c.Addr() {
		t.Errorf("the leader of /x lists %v, writer %q; want the opener as both", holders, writer)
	}
	_ = f.Close()
	if node, err := wt.a.Stat(ctx, "/x/new"); err != nil || node.Ino != f.Ino() {
		t.Errorf("stat of the new file: %v, %v", node, err)
	}
}

// A negative permission-cache entry does not answer a create: the create goes
// out as a one-name walk to the leader of the directory, and a stat straight
// after finds the file, with no negative entry left in the way.
func TestPermCacheNegativeEntryThenCreate(t *testing.T) {
	wt := newWalkTree(t)
	pc := wt.tc.client(t, "pc", func(o *Options) { o.PermCache = true })
	ctx := context.Background()
	if _, err := pc.Stat(ctx, "/x/y/z/gone"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("stat of a missing name: %v", err)
	}
	negative := func() bool {
		pc.mu.Lock()
		defer pc.mu.Unlock()
		node, cached := pc.pcache[wt.z].lookups["gone"]
		return cached && node == nil
	}
	if !negative() {
		t.Fatal("setup: no negative entry for the missing name")
	}
	var f *File
	got := sent(wt.reg, func() {
		var err error
		if f, err = pc.Create(ctx, "/x/y/z/gone", 0644); err != nil {
			t.Fatal(err)
		}
	})
	if want := map[string]int64{"Walk": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("the create sent %v, want %v", got, want)
	}
	if negative() {
		t.Error("the create left the negative entry")
	}
	if node, err := pc.Stat(ctx, "/x/y/z/gone"); err != nil || node.Ino != f.Ino() {
		t.Errorf("stat straight after the create: %v, %v; want the new file", node, err)
	}
	_ = f.Close()
}

// Four goroutines stat through one permission-caching mount: hits, misses,
// fills and negative entries of the same directories at the same time. Under
// -race this is the test of the rule that a cache entry never leaves c.mu.
func TestPermCacheConcurrentStats(t *testing.T) {
	wt := newWalkTree(t)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if err := wt.a.Mkdir(ctx, fmt.Sprintf("/x/y/z/d%d", i), 0777); err != nil {
			t.Fatal(err)
		}
	}
	pc := wt.tc.client(t, "pc", func(o *Options) { o.PermCache = true })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := (g + i) % 8
				if _, err := pc.Stat(ctx, fmt.Sprintf("/x/y/z/d%d", n)); err != nil {
					t.Errorf("stat d%d: %v", n, err)
				}
				if _, err := pc.Stat(ctx, fmt.Sprintf("/x/y/z/d%d/none%d", n, i%3)); !errors.Is(err, types.ErrNotExist) {
					t.Errorf("stat of a missing name: %v", err)
				}
				if _, err := pc.Stat(ctx, "/x/y/z/f"); err != nil {
					t.Errorf("stat f: %v", err)
				}
				if i%50 == g {
					pc.pcacheInvalidate(wt.z) // as this client's own unlink would
				}
			}
		}()
	}
	wg.Wait()
	if pc.StatCounters().PcacheHits.Load() == 0 {
		t.Error("no permission-cache hits: the test exercised nothing")
	}
}

// The message sequence of each call at depth 3 under one remote leader. A
// slide back to a lookup per component, or a round trip added to the open or
// create path (the walk is the open of a file that exists, and the create of
// one that does not), fails here and not only in the benchmark.
func TestMessagesPerCall(t *testing.T) {
	tc := newTestCluster(t)
	reg := obs.NewRegistry()
	tc.net.SetObs(reg)
	leader, c := tc.client(t, "leader"), tc.client(t, "c")
	ctx := context.Background()
	for _, dir := range []string{"/p", "/p/q", "/p/q/r"} {
		if err := leader.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	create := func(path string) error {
		f, err := c.Create(ctx, path, 0666)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("3901 bytes, say")); err != nil {
			return err
		}
		return f.Close()
	}
	seed, err := leader.Create(ctx, "/p/q/r/seed", 0666) // takes the lease of /p/q/r
	if err != nil {
		t.Fatal(err)
	}
	_ = seed.Close()
	if err := create("/p/q/r/warm"); err != nil { // c learns its one route
		t.Fatal(err)
	}
	if r, err := leader.Stat(ctx, "/p/q/r"); err != nil || !leader.Leads(r.Ino) || c.StatCounters().LocalMetaOps.Load() != 0 {
		t.Fatalf("setup: the leader should lead /p/q/r (%v) and c nothing", err)
	}
	// The lease goes back off the caller's stack, after the write-back if any.
	closed := func(n int64) {
		for end := time.Now().Add(5 * time.Second); leaderCalls(reg)["CloseFile"] < n && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}
	closed(1)
	for _, tt := range []struct {
		call string
		fn   func() error
		want map[string]int64
	}{
		{"create+write+close", func() error { return create("/p/q/r/f") },
			map[string]int64{"Walk": 1, "SetAttr": 1, "CloseFile": 1}},
		{"stat", func() error { _, err := c.Stat(ctx, "/p/q/r/f"); return err },
			map[string]int64{"Walk": 1}},
		{"open+read+close", func() error {
			f, err := c.Open(ctx, "/p/q/r/f", types.ORdonly, 0)
			if err != nil {
				return err
			}
			if _, err := io.ReadAll(f); err != nil {
				return err
			}
			return f.Close()
		}, map[string]int64{"Walk": 1, "CloseFile": 1}},
		{"O_CREAT open+close of an existing file", func() error {
			f, err := c.Open(ctx, "/p/q/r/f", types.OWronly|types.OCreate, 0666)
			if err != nil {
				return err
			}
			return f.Close()
		}, map[string]int64{"Walk": 1, "CloseFile": 1}},
		{"open+write+close", func() error {
			f, err := c.Open(ctx, "/p/q/r/f", types.OWronly, 0)
			if err != nil {
				return err
			}
			if _, err := f.Write([]byte("3901 other bytes")); err != nil {
				return err
			}
			return f.Close()
		}, map[string]int64{"Walk": 1, "WriteLease": 1, "SetAttr": 1, "CloseFile": 1}},
		{"mkdir", func() error { return c.Mkdir(ctx, "/p/q/r/sub", 0777) },
			map[string]int64{"Walk": 1}},
		{"unlink", func() error { return c.Unlink(ctx, "/p/q/r/f") },
			map[string]int64{"Walk": 1, "Unlink": 1}},
	} {
		before := leaderCalls(reg)["CloseFile"]
		got := sent(reg, func() {
			if err := tt.fn(); err != nil {
				t.Errorf("%s: %v", tt.call, err)
			}
			closed(before + tt.want["CloseFile"])
		})
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("%s sent %v, want %v", tt.call, got, tt.want)
		}
	}
}

// A multi-name walk and its answer cross the TCP bridge's gob encoding as
// they cross the in-process fabric.
func TestWalkSurvivesTCPBridge(t *testing.T) {
	wt := newWalkTree(t)
	bridge, err := wt.tc.net.Bridge("127.0.0.1:0", wt.a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	env := sim.NewRealEnv()
	defer env.Shutdown()
	far := rpc.NewNetwork(env, sim.NetModel{})

	ctx := context.Background()
	req := WalkReq{Dir: wt.y, Names: []string{"z", "f", "unreached"}, Cred: wt.a.opts.Cred, WantDirInode: true}
	want := wt.a.serve(ctx, req).(WalkResp)
	if len(want.Inodes) != 2 || len(want.DirInode) == 0 || want.Err != "" {
		t.Fatalf("served directly: %d inodes, %d bytes of directory inode, err %q", len(want.Inodes), len(want.DirInode), want.Err)
	}
	got, err := far.Call(rpc.TCPAddr(bridge.Addr()), req)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("over the bridge: %+v, %v; want what the leader serves directly", got, err)
	}
	req.Names = []string{"z", "nope", "f"}
	got, err = far.Call(rpc.TCPAddr(bridge.Addr()), req)
	if resp, ok := got.(WalkResp); err != nil || !ok || len(resp.Inodes) != 1 || resp.Err != types.Errno(types.ErrNotExist) {
		t.Errorf("a failing walk over the bridge: %+v, %v; want z, then ENOENT", got, err)
	}

	// A walk that carries an open: Holder and Write arrive, and Leased, Direct
	// and the grant's number come back. The second holder's write lease puts
	// the file in direct mode (its recall finds nobody listening at the first).
	f := wt.ino(t, "/x/y/z/f")
	req = WalkReq{Dir: wt.y, Names: []string{"z", "f"}, Cred: wt.a.opts.Cred, Holder: "arkfs-far", Write: true}
	got, err = far.Call(rpc.TCPAddr(bridge.Addr()), req)
	first, ok := got.(WalkResp)
	if err != nil || !ok || !first.Leased || first.Direct || first.Grant == 0 || !holdsLease(t, wt.a, wt.z, f, "arkfs-far") {
		t.Fatalf("a walk with an open over the bridge: %+v, %v; want Leased, a grant number, and arkfs-far listed", got, err)
	}
	wt.a.serve(ctx, WriteLeaseReq{Dir: wt.z, Ino: f, Client: "arkfs-other"})
	got, err = far.Call(rpc.TCPAddr(bridge.Addr()), req)
	if again, ok := got.(WalkResp); err != nil || !ok || !again.Leased || !again.Direct || again.Grant <= first.Grant {
		t.Errorf("the same walk after a conflict: %+v, %v; want Leased, Direct and a later grant than %d", got, err, first.Grant)
	}
}
