package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// TestLedSetUnderChurn drives forwarded walks, creates and cross-directory
// renames from two peers at a leader whose led set changes under them, which
// the leader reads without a lock (DESIGN.md §5.9): keeper extensions replace
// each lease; a cut to the lease manager lets the leases lapse, a peer takes
// the directories over, and a redirect drops the leader's stale tables; then
// every client in turn releases /s and /t, and whoever asks next leads them.
// Every call succeeds or ends in ESTALE, no request is served from a lease
// that had lapsed when it arrived, and the namespace at the end holds what
// the successful calls made, where they put it.
func TestLedSetUnderChurn(t *testing.T) {
	tc := newTestCluster(t)
	leader := tc.client(t, "leader")
	peers := []*Client{tc.client(t, "p1"), tc.client(t, "p2")}
	ctx := context.Background()
	for _, dir := range []string{"/s", "/t"} {
		if err := leader.Mkdir(ctx, dir, 0777); err != nil {
			t.Fatal(err)
		}
		seedFile(t, leader, dir+"/seed", "", 0666)
	}
	s, tdir := statIno(t, leader, "/s"), statIno(t, leader, "/t")
	if !leader.Leads(s) || !leader.Leads(tdir) {
		t.Fatal("setup: the leader should lead /s and /t")
	}
	servesChecked.Store(true)
	defer servesChecked.Store(false)
	lapsed := servedLapsed.Load()
	extensions := tc.mgrs.Counter("lease.extensions").Value()

	// What each peer's calls did: a name is made in /s and maybe moved to
	// /t. A create or a rename that ended in ESTALE may have happened or not.
	type fate struct{ made, moved, maybeMoved bool }
	fates := make([]map[string]*fate, len(peers))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	halt := sync.OnceFunc(func() {
		close(stop)
		wg.Wait()
	})
	defer halt()
	// A rename runs under a read hold of renames, and none starts while the
	// leader is cut off: its coordinator would wait out the cut in acquire.
	var renames sync.RWMutex
	for p, peer := range peers {
		fates[p] = make(map[string]*fate)
		wg.Add(1)
		go func(p int, peer *Client) {
			defer wg.Done()
			ok := func(op, path string, err error) bool {
				if err != nil && !errors.Is(err, types.ErrStale) {
					t.Errorf("%s %s: %v, want success or ESTALE", op, path, err)
				}
				return err == nil
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
				}
				name := fmt.Sprintf("p%d-%d", p, i)
				f := &fate{}
				fates[p][name] = f
				file, err := peer.Create(ctx, "/s/"+name, 0644)
				if f.made = ok("create", name, err); !f.made {
					continue
				}
				ok("close", name, file.Close())
				_, err = peer.Stat(ctx, "/s/"+name)
				ok("stat", name, err)
				if i%3 == 0 && renames.TryRLock() {
					err := peer.Rename(ctx, "/s/"+name, "/t/"+name)
					renames.RUnlock()
					f.moved = ok("rename", name, err)
					f.maybeMoved = err != nil
				}
			}
		}(p, peer)
	}

	// A redirect: cut the leader off from the lease manager until its leases
	// lapse and a peer's call takes /s over, then let the keeper learn of it.
	time.Sleep(200 * time.Millisecond)
	renames.Lock()
	plan := rpc.NewFaultPlan(tc.env, 1)
	tc.net.SetFaultPlan(plan)
	cut := plan.Partition([]rpc.Addr{leader.Addr()}, []rpc.Addr{"leasemgr"})
	for end := time.Now().Add(3 * time.Second); !peers[0].Leads(s) && !peers[1].Leads(s); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("no peer took /s over from the cut-off leader, which served %d requests on a lapsed lease", servedLapsed.Load()-lapsed)
		}
	}
	if leader.ledEntry(s) == nil {
		t.Fatal("the cut-off leader dropped /s before it heard of the new leader")
	}
	cut.Heal()
	for end := time.Now().Add(3 * time.Second); leader.ledEntry(s) != nil; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the leader kept its stale table of /s")
		}
	}
	tc.net.SetFaultPlan(nil)
	renames.Unlock()

	// Releases and re-acquisitions: each client in turn gives /s and /t up,
	// and the leader asks for them again at once.
	for round := 0; round < 4; round++ {
		for _, c := range append([]*Client{leader}, peers...) {
			for _, dir := range []types.Ino{s, tdir} {
				if err := c.ReleaseDir(dir); err != nil {
					t.Errorf("release: %v", err)
				}
			}
			for _, dir := range []string{"/s", "/t"} {
				if _, err := leader.Readdir(ctx, dir); err != nil && !errors.Is(err, types.ErrStale) {
					t.Errorf("readdir %s: %v", dir, err)
				}
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	halt()

	if n := servedLapsed.Load() - lapsed; n != 0 {
		t.Errorf("%d requests were served from a lease that had lapsed when they arrived", n)
	}
	if tc.mgrs.Counter("lease.extensions").Value() == extensions {
		t.Error("no lease was extended during the churn")
	}
	in := func(dir string) map[string]bool {
		ents, err := leader.Readdir(ctx, dir)
		if err != nil {
			t.Fatalf("readdir %s: %v", dir, err)
		}
		names := make(map[string]bool, len(ents))
		for _, e := range ents {
			names[e.Name] = true
		}
		return names
	}
	inS, inT := in("/s"), in("/t")
	for p := range fates {
		for name, f := range fates[p] {
			switch {
			case inS[name] && inT[name]:
				t.Errorf("%s is in both /s and /t", name)
			case f.made && f.moved && !inT[name]:
				t.Errorf("%s was moved to /t, but /t has no %s", name, name)
			case f.made && !f.moved && !f.maybeMoved && !inS[name]:
				t.Errorf("%s was made in /s, but /s has no %s", name, name)
			case f.made && f.maybeMoved && !inS[name] && !inT[name]:
				t.Errorf("%s was made, and is in neither /s nor /t", name)
			case !f.made && inT[name]:
				t.Errorf("%s was never moved, but is in /t", name)
			}
			delete(inS, name)
			delete(inT, name)
		}
	}
	delete(inS, "seed")
	delete(inT, "seed")
	if len(inS) != 0 || len(inT) != 0 {
		t.Errorf("names no call made: /s %v, /t %v", inS, inT)
	}
}

// A mutation that passed the leader check before ReleaseDir began lands in
// the flush that precedes the release, or is refused: here a forwarded create
// waits for the table's opMu, which the test holds, while the leader releases
// the directory. Without the release's own turn on opMu the create went into
// the dropped table after the flush, was acknowledged, and the directory's
// next leader, loading what the clean release checkpointed, had no such file.
// No event marks the create's arrival at opMu or the release's, so the test
// gives each a tenth of a second.
func TestReleaseDirTakesNoMutationAfterItsFlush(t *testing.T) {
	tc := newTestCluster(t)
	leader, peer := tc.client(t, "leader"), tc.client(t, "peer")
	ctx := context.Background()
	if err := leader.Mkdir(ctx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	seedFile(t, leader, "/d/seed", "", 0666)
	dir := statIno(t, leader, "/d")
	if _, err := peer.Stat(ctx, "/d/seed"); err != nil || peer.Leads(dir) {
		t.Fatalf("setup: the peer should reach /d through the leader (%v)", err)
	}
	ld, ok := leader.ledDirFor(dir)
	if !ok {
		t.Fatal("setup: the leader does not lead /d")
	}
	ld.opMu.Lock()
	made, released := make(chan error, 1), make(chan error, 1)
	go func() {
		f, err := peer.Create(ctx, "/d/f", 0644)
		if err == nil {
			err = f.Close()
		}
		made <- err
	}()
	time.Sleep(100 * time.Millisecond)
	go func() { released <- leader.ReleaseDir(dir) }()
	time.Sleep(100 * time.Millisecond)
	ld.opMu.Unlock()
	if err := <-released; err != nil {
		t.Fatalf("release: %v", err)
	}
	if err := <-made; err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := peer.Stat(ctx, "/d/f"); err != nil {
		t.Fatalf("the acknowledged create is gone after the release: %v", err)
	}
}

// A release and an acquisition of one directory by one client take turns. An
// extension sent before ReleaseDir and answered after it would otherwise find
// no table, load one and serve the directory, while the manager, which took
// the release after the extension, grants it to the next client that asks.
func TestReleaseDirWaitsForAnAcquisition(t *testing.T) {
	tc := newTestCluster(t)
	leader, peer := tc.client(t, "leader"), tc.client(t, "peer")
	ctx := context.Background()
	if err := leader.Mkdir(ctx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	seedFile(t, leader, "/d/seed", "", 0666)
	dir := statIno(t, leader, "/d")
	plan := rpc.NewFaultPlan(tc.env, 1)
	plan.SetLatency(50*time.Millisecond, 0)
	tc.net.SetFaultPlan(plan)
	extended := make(chan error, 1)
	go func() {
		_, _, err := leader.acquireLease(ctx, dir)
		extended <- err
	}()
	time.Sleep(10 * time.Millisecond) // the extension is on its way
	if err := leader.ReleaseDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := <-extended; err != nil {
		t.Fatal(err)
	}
	tc.net.SetFaultPlan(nil)
	if _, err := peer.Readdir(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	if leader.Leads(dir) && peer.Leads(dir) {
		t.Fatal("the leader serves /d after its release, and so does the peer the manager granted it to")
	}
}
