package core

import (
	"bytes"
	"context"
	"errors"
	"io"
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

// testCluster wires a complete ArkFS deployment on an in-memory store with a
// wall-clock environment and fast timeouts.
type testCluster struct {
	env   sim.Env
	net   *rpc.Network
	tr    *prt.Translator
	mgr   *lease.Manager
	store *objstore.MemStore
	fault *objstore.FaultStore
}

func newTestCluster(t testing.TB) *testCluster { return newTestClusterAt(t, 4096) }

// newTestClusterAt is newTestCluster at a chosen chunk size: what a file's
// data costs depends on it, so benchmarks run at the deployed 2 MiB.
func newTestClusterAt(t testing.TB, chunk int64) *testCluster {
	t.Helper()
	env := sim.NewRealEnv()
	t.Cleanup(env.Shutdown)
	net := rpc.NewNetwork(env, sim.NetModel{})
	store := objstore.NewMemStore()
	fault := objstore.NewFaultStore(store)
	tr := prt.New(fault, chunk)
	if err := Format(tr); err != nil {
		t.Fatal(err)
	}
	mgr := lease.NewManager(net, lease.Options{Period: 500 * time.Millisecond, Workers: 4})
	t.Cleanup(mgr.Close)
	return &testCluster{env: env, net: net, tr: tr, mgr: mgr, store: store, fault: fault}
}

func (tc *testCluster) client(t testing.TB, id string, opts ...func(*Options)) *Client {
	t.Helper()
	o := Options{
		ID:          id,
		Cred:        types.Cred{Uid: 1000, Gid: 1000},
		LeasePeriod: tc.mgr.Period(),
		LeaseMargin: tc.mgr.Period() / 4,
		Journal:     journal.Config{CommitInterval: 20 * time.Millisecond, CommitWorkers: 2, CheckpointWorkers: 2},
	}
	for _, f := range opts {
		f(&o)
	}
	c := New(tc.net, tc.tr, o)
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestMkdirCreateStatReaddir(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/home", 0755); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir(context.Background(), "/home/user", 0750); err != nil {
		t.Fatal(err)
	}
	f, err := c.Create(context.Background(), "/home/user/hello.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat(context.Background(), "/home/user/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if st.Size != 2 || st.Type != types.TypeRegular || st.Mode != 0644 || st.Uid != 1000 {
		t.Fatalf("stat: %+v", st)
	}
	ents, err := c.Readdir(context.Background(), "/home/user")
	if err != nil || len(ents) != 1 || ents[0].Name != "hello.txt" {
		t.Fatalf("readdir: %v, %v", ents, err)
	}
	// Root listing.
	ents, err = c.Readdir(context.Background(), "/")
	if err != nil || len(ents) != 1 || ents[0].Name != "home" {
		t.Fatalf("readdir /: %v, %v", ents, err)
	}
	// Errors.
	if _, err := c.Stat(context.Background(), "/nope"); !isNotExist(err) {
		t.Fatalf("stat missing: %v", err)
	}
	if err := c.Mkdir(context.Background(), "/home", 0755); !errors.Is(err, types.ErrExist) {
		t.Fatalf("mkdir dup: %v", err)
	}
	if _, err := c.Readdir(context.Background(), "/home/user/hello.txt"); !errors.Is(err, types.ErrNotDir) {
		t.Fatalf("readdir file: %v", err)
	}
}

func TestWriteReadBackThroughStore(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("abcdefgh"), 2048) // 16 KiB over 4 KiB chunks
	f, err := c.Create(context.Background(), "/d/file", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and read back.
	g, err := c.Open(context.Background(), "/d/file", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes, want %d", len(got), len(payload))
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkAndRmdir(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/d", 0755); err != nil {
		t.Fatal(err)
	}
	f, _ := c.Create(context.Background(), "/d/x", 0644)
	_, _ = f.Write([]byte("data"))
	_ = f.Close()

	if err := c.Rmdir(context.Background(), "/d"); !errors.Is(err, types.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := c.Unlink(context.Background(), "/d"); !errors.Is(err, types.ErrIsDir) {
		t.Fatalf("unlink dir: %v", err)
	}
	if err := c.Unlink(context.Background(), "/d/x"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(context.Background(), "/d/x"); !isNotExist(err) {
		t.Fatalf("stat after unlink: %v", err)
	}
	if err := c.Rmdir(context.Background(), "/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(context.Background(), "/d"); !isNotExist(err) {
		t.Fatalf("stat after rmdir: %v", err)
	}
	// After a full flush and checkpoint, the store must not leak objects for
	// the deleted tree (superblock + root inode + root dentries only).
	// Client.FlushAll is a durability barrier; the journal's strong flush
	// forces the checkpoint this store-level assertion needs.
	if err := c.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.jrnl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	keys, _ := tc.store.List("")
	if len(keys) > 3 {
		t.Fatalf("leaked objects: %v", keys)
	}
}

func TestSymlinkResolution(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if err := c.Mkdir(context.Background(), "/real", 0755); err != nil {
		t.Fatal(err)
	}
	f, _ := c.Create(context.Background(), "/real/target", 0644)
	_, _ = f.Write([]byte("payload"))
	_ = f.Close()
	if err := c.Symlink(context.Background(), "/real", "/link"); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink(context.Background(), "target", "/real/rel"); err != nil {
		t.Fatal(err)
	}
	// Follow through the dir symlink.
	st, err := c.Stat(context.Background(), "/link/target")
	if err != nil || st.Size != 7 {
		t.Fatalf("stat via symlink: %+v, %v", st, err)
	}
	// Relative symlink.
	st, err = c.Stat(context.Background(), "/real/rel")
	if err != nil || st.Size != 7 {
		t.Fatalf("stat via relative symlink: %+v, %v", st, err)
	}
	// Lstat does not follow.
	ln, err := c.Lstat(context.Background(), "/link")
	if err != nil || ln.Type != types.TypeSymlink {
		t.Fatalf("lstat: %+v, %v", ln, err)
	}
	if tgt, err := c.Readlink(context.Background(), "/link"); err != nil || tgt != "/real" {
		t.Fatalf("readlink: %q, %v", tgt, err)
	}
	// Symlink loop.
	if err := c.Symlink(context.Background(), "/loop2", "/loop1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink(context.Background(), "/loop1", "/loop2"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat(context.Background(), "/loop1"); !errors.Is(err, types.ErrLoop) {
		t.Fatalf("loop: %v", err)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	tc := newTestCluster(t)
	owner := tc.client(t, "owner")
	other := tc.client(t, "other", func(o *Options) {
		o.Cred = types.Cred{Uid: 2000, Gid: 2000}
	})
	if err := owner.Mkdir(context.Background(), "/priv", 0700); err != nil {
		t.Fatal(err)
	}
	f, _ := owner.Create(context.Background(), "/priv/secret", 0600)
	_ = f.Close()
	if err := owner.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A different uid cannot traverse the 0700 directory.
	if _, err := other.Stat(context.Background(), "/priv/secret"); !errors.Is(err, types.ErrAccess) {
		t.Fatalf("traverse denied expected: %v", err)
	}
	if _, err := other.Readdir(context.Background(), "/priv"); !errors.Is(err, types.ErrAccess) {
		t.Fatalf("readdir denied expected: %v", err)
	}
	// Opening others' files read-only fails on mode bits.
	if err := owner.Chmod(context.Background(), "/priv", 0755); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Open(context.Background(), "/priv/secret", types.ORdonly, 0); !errors.Is(err, types.ErrAccess) {
		t.Fatalf("open denied expected: %v", err)
	}
	// Non-owner cannot chmod.
	if err := other.Chmod(context.Background(), "/priv/secret", 0777); !errors.Is(err, types.ErrPerm) {
		t.Fatalf("chmod by non-owner: %v", err)
	}
	// ACL grants access to a named user.
	if err := owner.SetACL(context.Background(), "/priv/secret", types.ACL{
		{Tag: types.TagUserObj, Perms: 7},
		{Tag: types.TagUser, ID: 2000, Perms: types.MayRead},
		{Tag: types.TagMask, Perms: 7},
	}); err != nil {
		t.Fatal(err)
	}
	g, err := other.Open(context.Background(), "/priv/secret", types.ORdonly, 0)
	if err != nil {
		t.Fatalf("ACL-granted open failed: %v", err)
	}
	_ = g.Close()
}

func TestTruncateAndAppend(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	f, err := c.Create(context.Background(), "/f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate(context.Background(), "/f", 4); err != nil {
		t.Fatal(err)
	}
	st, _ := c.Stat(context.Background(), "/f")
	if st.Size != 4 {
		t.Fatalf("size after truncate = %d", st.Size)
	}
	// O_APPEND writes land at the end.
	g, err := c.Open(context.Background(), "/f", types.OWronly|types.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("XY")); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	h, _ := c.Open(context.Background(), "/f", types.ORdonly, 0)
	got, _ := io.ReadAll(h)
	_ = h.Close()
	if string(got) != "0123XY" {
		t.Fatalf("content = %q", got)
	}
	// O_TRUNC empties.
	w, err := c.Open(context.Background(), "/f", types.OWronly|types.OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	st, _ = c.Stat(context.Background(), "/f")
	if st.Size != 0 {
		t.Fatalf("size after O_TRUNC = %d", st.Size)
	}
}

func TestOpenFlagsSemantics(t *testing.T) {
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	if _, err := c.Open(context.Background(), "/missing", types.ORdonly, 0); !isNotExist(err) {
		t.Fatalf("open missing: %v", err)
	}
	f, err := c.Open(context.Background(), "/new", types.ORdwr|types.OCreate|types.OExcl, 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	if _, err := c.Open(context.Background(), "/new", types.OWronly|types.OCreate|types.OExcl, 0644); !errors.Is(err, types.ErrExist) {
		t.Fatalf("O_EXCL on existing: %v", err)
	}
	// Write on read-only handle.
	r, _ := c.Open(context.Background(), "/new", types.ORdonly, 0)
	if _, err := r.Write([]byte("x")); !errors.Is(err, types.ErrBadFD) {
		t.Fatalf("write on O_RDONLY: %v", err)
	}
	_ = r.Close()
}
