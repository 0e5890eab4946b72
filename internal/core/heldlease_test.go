package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"arkfs/internal/types"
)

// twoChunks makes /d/f, led by leader, holding two chunks of 'a' and no
// holder, and returns /d's inode.
func twoChunks(t *testing.T, leader *Client) types.Ino {
	t.Helper()
	if err := leader.Mkdir(bgCtx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	f, err := leader.Create(bgCtx, "/d/f", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte("a"), 8192)); err != nil {
		t.Fatal(err)
	}
	// Written back before the close, which then returns the lease in line.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return statIno(t, leader, "/d")
}

func readAt(t *testing.T, f *File, n int, off int64) string {
	t.Helper()
	p := make([]byte, n)
	if _, err := f.ReadAt(p, off); err != nil {
		t.Fatal(err)
	}
	return string(p)
}

func writeAt(t *testing.T, f *File, s string, off int64) {
	t.Helper()
	if _, err := f.WriteAt([]byte(s), off); err != nil {
		t.Fatal(err)
	}
}

// A truncate takes the write lease of a remote writer, whose FlushCacheReq
// flips it to direct I/O: it goes on writing to the store. A reader who opens
// the file next must not cache, or it reads what the writer has overwritten.
func TestTakenWriterLeavesFileDirect(t *testing.T) {
	tc := newTestCluster(t)
	leader, writer := tc.client(t, "leader"), tc.client(t, "writer")
	twoChunks(t, leader)
	w, err := writer.Open(bgCtx, "/d/f", types.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writeAt(t, w, "x", 0) // the write lease: writer is the only holder
	if err := leader.Truncate(bgCtx, "/d/f", 4096); err != nil {
		t.Fatal(err)
	}
	r, err := leader.Open(bgCtx, "/d/f", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := readAt(t, r, 2, 0); got != "xa" {
		t.Fatalf("after the truncate the reader reads %q, want %q", got, "xa")
	}
	writeAt(t, w, "y", 1)
	if got := readAt(t, r, 2, 0); got != "xy" {
		t.Fatalf("the reader reads %q after the ex-writer's write, want %q", got, "xy")
	}
}

// The leader holds the write lease of a file it created, and truncates it:
// its own record loses the write lease as a remote writer's would, so its next
// write goes where a remote reader that opened since reads.
func TestLeaderLosesOwnWriteLeaseOnTruncate(t *testing.T) {
	tc := newTestCluster(t)
	leader, reader := tc.client(t, "leader"), tc.client(t, "reader")
	if err := leader.Mkdir(bgCtx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	w, err := leader.Create(bgCtx, "/d/f", 0666)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	writeAt(t, w, string(bytes.Repeat([]byte("a"), 8192)), 0)
	if err := w.Sync(); err != nil { // the size the truncate shrinks
		t.Fatal(err)
	}
	if err := leader.Truncate(bgCtx, "/d/f", 4096); err != nil {
		t.Fatal(err)
	}
	r, err := reader.Open(bgCtx, "/d/f", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := readAt(t, r, 1, 0); got != "a" {
		t.Fatalf("the reader reads %q, want %q", got, "a")
	}
	writeAt(t, w, "b", 0)
	if got := readAt(t, r, 1, 0); got != "b" {
		t.Fatalf("the reader reads %q after the leader's write, want %q", got, "b")
	}
}

// An open whose walk found one inode attaches with a one-name walk; if the
// name now leads to another inode, the open fails with ENOENT, and the grant
// the leader made for that other inode goes back.
func TestFailedAttachReturnsOtherGrant(t *testing.T) {
	tc := newTestCluster(t)
	leader, c := tc.client(t, "leader"), tc.client(t, "c")
	dir := twoChunks(t, leader)
	old, err := c.Stat(bgCtx, "/d/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := leader.Unlink(bgCtx, "/d/f"); err != nil {
		t.Fatal(err)
	}
	f, err := leader.Create(bgCtx, "/d/f", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.openDataLease(context.Background(), dir, "f", old, false); !isNotExist(err) {
		t.Fatalf("attach to a name that leads elsewhere: %v, want ENOENT", err)
	}
	if err := c.FlushAll(bgCtx); err != nil {
		t.Fatal(err)
	}
	if holders, _, _ := leaseOf(t, leader, dir, statIno(t, leader, "/d/f")); slices.Contains(holders, c.Addr()) {
		t.Fatalf("the leader still lists %s for the other inode: %v", c.Addr(), holders)
	}
	if n := records(c); n != 0 {
		t.Fatalf("%d open-file records left", n)
	}
}
