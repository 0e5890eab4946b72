package core

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// TestMultiProcessDeploymentOverTCP wires the full multi-process topology
// inside one test: an HTTP object gateway, a lease manager in its own
// "process" (separate rpc.Network) bridged over TCP, and two clients in two
// further "processes" that reach the manager and each other only through
// TCP bridges. It is the cmd/objstored + cmd/leasemgr + cmd/arkfs topology.
func TestMultiProcessDeploymentOverTCP(t *testing.T) {
	// Shared object store over real HTTP.
	gw := httptest.NewServer(objstore.NewGateway(objstore.NewMemStore()))
	defer gw.Close()

	// "Process" 1: the lease manager.
	mgrEnv := sim.NewRealEnv()
	defer mgrEnv.Shutdown()
	mgrNet := rpc.NewNetwork(mgrEnv, sim.NetModel{})
	mgr := lease.NewManager(mgrNet, lease.Options{Period: time.Second})
	defer mgr.Close()
	mgrBridge, err := mgrNet.Bridge("127.0.0.1:0", mgr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mgrBridge.Close()
	mgrAddr := rpc.TCPAddr(mgrBridge.Addr())

	// Advertise needs the bridge address before the client talks to the
	// manager, so each client process binds its bridge first, as cmd/arkfs
	// -serve does, and then creates the client that advertises it.
	env1 := sim.NewRealEnv()
	defer env1.Shutdown()
	net1 := rpc.NewNetwork(env1, sim.NetModel{})
	store1 := objstore.NewHTTPStore(gw.URL)
	tr1 := prt.New(store1, 64<<10)
	if err := Format(tr1); err != nil {
		t.Fatal(err)
	}
	b1, err := net1.Bridge("127.0.0.1:0", ServiceName("p1"))
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()
	c1 := New(net1, tr1, Options{
		ID: "p1", Cred: types.Cred{Uid: 1000, Gid: 1000},
		LeaseMgr: mgrAddr, LeasePeriod: time.Second,
		Journal:   journal.Config{CommitInterval: 20 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2},
		Advertise: rpc.TCPAddr(b1.Addr()),
	})
	defer c1.Close()

	env2 := sim.NewRealEnv()
	defer env2.Shutdown()
	net2 := rpc.NewNetwork(env2, sim.NetModel{})
	store2 := objstore.NewHTTPStore(gw.URL)
	tr2 := prt.New(store2, 64<<10)
	b2, err := net2.Bridge("127.0.0.1:0", ServiceName("p2"))
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	c2 := New(net2, tr2, Options{
		ID: "p2", Cred: types.Cred{Uid: 1000, Gid: 1000},
		LeaseMgr: mgrAddr, LeasePeriod: time.Second,
		Journal:   journal.Config{CommitInterval: 20 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2},
		Advertise: rpc.TCPAddr(b2.Addr()),
	})
	defer c2.Close()

	// p1 builds a tree; it leads / and /shared.
	if err := c1.Mkdir(context.Background(), "/shared", 0777); err != nil {
		t.Fatal(err)
	}
	f, err := c1.Create(context.Background(), "/shared/hello", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// p2 reads through p1's leadership: its lookup RPCs cross a real TCP
	// bridge, and the data bytes cross real HTTP.
	st, err := c2.Stat(context.Background(), "/shared/hello")
	if err != nil {
		t.Fatalf("cross-process stat: %v", err)
	}
	if st.Size != 8 {
		t.Fatalf("size = %d", st.Size)
	}
	r, err := c2.Open(context.Background(), "/shared/hello", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Close()
	if string(data) != "over tcp" {
		t.Fatalf("data = %q", data)
	}
	// And p2 creates a file in p1's directory — a forwarded op over TCP.
	g, err := c2.Create(context.Background(), "/shared/from-p2", 0666)
	if err != nil {
		t.Fatal(err)
	}
	_ = g.Close()
	ents, err := c1.Readdir(context.Background(), "/shared")
	if err != nil || len(ents) != 2 {
		t.Fatalf("p1 sees %v, %v", ents, err)
	}
}

// TestLeaseManagerRestartEndToEnd crashes the lease manager, restarts it in
// quiesce mode, and checks clients resume after the quiesce window
// (paper §III-E-2).
func TestLeaseManagerRestartEndToEnd(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := rpc.NewNetwork(env, sim.NetModel{})
	tr := prt.New(objstore.NewMemStore(), 4096)
	if err := Format(tr); err != nil {
		t.Fatal(err)
	}
	mgr := lease.NewManager(net, lease.Options{Period: 300 * time.Millisecond})
	c := New(net, tr, Options{
		ID: "a", Cred: types.Cred{Uid: 1, Gid: 1},
		LeasePeriod: 300 * time.Millisecond,
		Journal:     journal.Config{CommitInterval: 20 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2},
	})
	defer c.Close()
	if err := c.Mkdir(context.Background(), "/d", 0777); err != nil {
		t.Fatal(err)
	}
	f, _ := c.Create(context.Background(), "/d/before", 0644)
	_ = f.Close()

	// Manager crashes; a client holding its lease keeps working on its own
	// directory until the lease runs out (paper: "any client who has the
	// lease can continue its work").
	mgr.Close()
	g, err := c.Create(context.Background(), "/d/during", 0644)
	if err != nil {
		t.Fatalf("work during manager outage: %v", err)
	}
	_ = g.Close()

	// The manager restarts with a fresh state in quiesce mode.
	mgr2 := lease.NewManager(net, lease.Options{Period: 300 * time.Millisecond, Restarted: true})
	defer mgr2.Close()

	// New-directory access needs a fresh lease: it must eventually succeed
	// (after the quiesce window).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Mkdir(context.Background(), "/d2", 0777); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after manager restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
	h, err := c.Create(context.Background(), "/d2/after", 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = h.Close()
	for _, p := range []string{"/d/before", "/d/during", "/d2/after"} {
		if _, err := c.Stat(context.Background(), p); err != nil {
			t.Errorf("stat %s after restart: %v", p, err)
		}
	}
}

// A walk that carries a create naming its opener, and the WalkResp that grants
// the lease, cross the TCP bridge's gob encoding with every field, as they
// cross the in-process fabric.
func TestCreateLeaseSurvivesTCPBridge(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	bridge, err := tc.net.Bridge("127.0.0.1:0", leader.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()
	env := sim.NewRealEnv()
	defer env.Shutdown()
	far := rpc.NewNetwork(env, sim.NetModel{})

	dir := statIno(t, leader, "/d")
	holder := rpc.Addr("tcp!far-away:1")
	cred := types.Cred{Uid: 1000, Gid: 1000}
	req := CreateReq{
		Type: types.TypeRegular, Mode: 0444, Cred: cred,
		NewIno: types.NewInoSource(7).Next(), Exclusive: true, Holder: holder, Write: true,
	}
	walk := func(name string, req CreateReq) WalkReq {
		return WalkReq{Dir: dir, Names: []string{name}, Cred: cred, Holder: req.Holder, Write: req.Write, Create: &req}
	}
	got, err := far.Call(rpc.TCPAddr(bridge.Addr()), walk("f", req))
	resp, ok := got.(WalkResp)
	if err != nil || !ok || resp.Err != "" || !resp.Leased || len(resp.Inodes) != 1 {
		t.Fatalf("create over the bridge: %+v, %v; want an inode and Leased", got, err)
	}
	if holders, writer, _ := leaseOf(t, leader, dir, req.NewIno); len(holders) != 1 || holders[0] != holder || writer != holder {
		t.Errorf("the leader lists %v, writer %q; want %s as both", holders, writer, holder)
	}
	req.Holder, req.Write, req.NewIno = "", false, types.NewInoSource(8).Next()
	got, err = far.Call(rpc.TCPAddr(bridge.Addr()), walk("g", req))
	if resp, ok := got.(WalkResp); err != nil || !ok || resp.Err != "" || resp.Leased {
		t.Errorf("a create that names no holder: %+v, %v; want an inode and no lease", got, err)
	}
}
