package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"arkfs/internal/crashpoint"
	"arkfs/internal/prt"
	"arkfs/internal/types"
)

// A rename over a file another client holds open and dirty treats the file as
// an unlink does: the writer's cache goes to the store before the delete is
// logged, and the leader lists no lease for the file once the rename is done.
func TestRenameOverOpenFileDropsItsLease(t *testing.T) {
	for _, route := range []string{"same directory", "cross directory"} {
		t.Run(route, func(t *testing.T) {
			tc := newTestCluster(t)
			leader := leaderOf(t, tc, "/d")
			w := tc.client(t, "w")
			ctx := context.Background()
			src := "/d/g"
			if route == "cross directory" {
				if err := leader.Mkdir(ctx, "/e", 0777); err != nil {
					t.Fatal(err)
				}
				src = "/e/g"
			}
			dir := statIno(t, leader, "/d")
			ino := seedFile(t, leader, "/d/f", "old", 0666)
			seedFile(t, leader, src, "new", 0666)
			f, err := w.Open(ctx, "/d/f", types.ORdwr, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte("dirty"), 0); err != nil {
				t.Fatal(err)
			}
			if !w.data.Dirty(ino) {
				t.Fatal("setup: the writer does not cache its write")
			}
			if err := leader.Rename(ctx, src, "/d/f"); err != nil {
				t.Fatal(err)
			}
			if holders, writer, _ := leaseOf(t, leader, dir, ino); len(holders) != 0 || writer != "" {
				t.Errorf("the leader lists %v, writer %q for the replaced file", holders, writer)
			}
			if w.data.Dirty(ino) {
				t.Error("the writer's dirty bytes were not flushed")
			}
			if got := readAll(t, w, "/d/f"); got != "new" {
				t.Errorf("the name reads %q after the rename", got)
			}
		})
	}
}

// The size a close publishes is the size of the inode its handle has open: if
// the name now leads to another file, that file keeps its own size.
func TestCloseSizeNamesItsInode(t *testing.T) {
	tc := newTestCluster(t)
	leader := leaderOf(t, tc, "/d")
	w, other := tc.client(t, "w"), tc.client(t, "other")
	ctx := context.Background()
	f, err := w.Create(ctx, "/d/f", 0666)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if err := other.Unlink(ctx, "/d/f"); err != nil {
		t.Fatal(err)
	}
	seedFile(t, other, "/d/f", "abc", 0666)
	_ = f.Close() // the inode it names is gone
	if err := w.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if node, err := leader.Stat(ctx, "/d/f"); err != nil || node.Size != 3 {
		t.Fatalf("after the old handle's close the new file is %+v, %v; want 3 bytes", node, err)
	}
	if got := readAll(t, other, "/d/f"); got != "abc" {
		t.Fatalf("the new file reads %q", got)
	}
}

// A cross-directory rename that aborts after the participant took the entry it
// replaces out of its table puts that entry back: whether the participant's
// own prepare record fails to land, or the coordinator's decision does and the
// participant's resolver finds the rename presumed aborted. The participant
// serves the original file from the table it has, without a reload.
func TestAbortedRenameRestoresReplacedEntry(t *testing.T) {
	for _, fault := range []string{"prepare", "decision"} {
		t.Run(fault, func(t *testing.T) {
			tc := newTestCluster(t)
			ctx := context.Background()
			crash := crashpoint.NewSet()
			coord := tc.client(t, "coord", func(o *Options) { o.Crash = crash })
			part := tc.client(t, "part")
			for _, dir := range []string{"/src", "/dst"} {
				if err := coord.Mkdir(ctx, dir, 0777); err != nil {
					t.Fatal(err)
				}
			}
			seedFile(t, coord, "/src/f", "moving", 0666)
			ino := seedFile(t, part, "/dst/g", "replaced", 0666)
			srcDir, dstDir := statIno(t, coord, "/src"), statIno(t, part, "/dst")
			if !coord.Leads(srcDir) || !part.Leads(dstDir) {
				t.Fatal("setup: coord should lead /src, part /dst")
			}
			for _, c := range []*Client{coord, part} { // nothing left in a journal for the fault to hit
				if err := c.jrnl.FlushAll(); err != nil {
					t.Fatal(err)
				}
			}
			switch fault {
			case "prepare":
				tc.fault.FailNext(prt.JournalPrefix(dstDir), 1)
			case "decision": // the next PUT to the coordinator's journal after its own prepare
				crash.Arm(crashpoint.TwoPCPostPrepare, func() { tc.fault.FailNext(prt.JournalPrefix(srcDir), 1) })
			}
			table, _ := part.ledDirFor(dstDir)
			if err := coord.Rename(ctx, "/src/f", "/dst/g"); err == nil {
				t.Fatalf("the rename succeeded with its %s PUT failing", fault)
			}
			for end := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				part.mu.Lock()
				prepared := len(table.renames) > 0
				part.mu.Unlock()
				if !prepared {
					break
				}
				if time.Now().After(end) {
					t.Fatal("the participant never resolved its prepare")
				}
			}
			if ld, _ := part.ledDirFor(dstDir); ld != table {
				t.Fatal("the participant reloaded /dst")
			}
			if node, err := part.Stat(ctx, "/dst/g"); err != nil || node.Ino != ino {
				t.Fatalf("the participant stats /dst/g as %+v, %v; want the original %s", node, err, ino.Short())
			}
			if _, err := coord.Stat(ctx, "/src/f"); err != nil {
				t.Fatalf("the aborted rename lost its source: %v", err)
			}
		})
	}
}

// A coordinator whose lease on the source lapsed between the prepares and
// its decision writes no decision: a successor may already have presumed the
// rename aborted and loaded the source with the file still in it. The
// coordinator resolves its own side as an abort and answers ESTALE; the
// participant's resolver then finds no trace of the rename in the source's
// journal and takes its tentative entry out again.
func TestLapsedCoordinatorWritesNoDecision(t *testing.T) {
	tc := newTestCluster(t)
	ctx := context.Background()
	crash := crashpoint.NewSet()
	coord := tc.client(t, "coord", func(o *Options) { o.Crash = crash })
	part := tc.client(t, "part")
	for _, dir := range []string{"/src", "/dst"} {
		if err := coord.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
	}
	seedFile(t, coord, "/src/f", "moving", 0666)
	seedFile(t, part, "/dst/other", "", 0666)
	srcDir, dstDir := statIno(t, coord, "/src"), statIno(t, part, "/dst")
	if !coord.Leads(srcDir) || !part.Leads(dstDir) {
		t.Fatal("setup: coord should lead /src, part /dst")
	}
	// After the coordinator's own prepare, its leadership of /src is gone,
	// as a redirect leaves it.
	crash.Arm(crashpoint.TwoPCPostPrepare, func() {
		coord.mu.Lock()
		coord.unlead(srcDir)
		coord.mu.Unlock()
	})
	table, _ := part.ledDirFor(dstDir)
	if err := coord.Rename(ctx, "/src/f", "/dst/f"); !errors.Is(err, types.ErrStale) {
		t.Fatalf("the rename returned %v, want ESTALE", err)
	}
	if keys, _ := tc.store.List(prt.JournalPrefix(srcDir)); len(keys) != 0 {
		t.Fatalf("the lapsed coordinator left %v in the source's journal", keys)
	}
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		part.mu.Lock()
		prepared := len(table.renames) > 0
		part.mu.Unlock()
		if !prepared {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the participant never resolved its prepare")
		}
	}
	if _, err := part.Stat(ctx, "/dst/f"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("the participant stats /dst/f: %v; want ENOENT", err)
	}
	if _, err := coord.Stat(ctx, "/src/f"); err != nil {
		t.Fatalf("the aborted rename lost its source: %v", err)
	}
}
