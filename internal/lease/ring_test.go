package lease

import (
	"fmt"
	"testing"
	"time"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

func inoFor(i int) types.Ino {
	var ino types.Ino
	ino[0] = byte(i >> 8)
	ino[1] = byte(i)
	ino[15] = 0x5a
	return ino
}

// Routing is a pure function of (members, inode): two independently built
// rings over the same membership — regardless of declaration order or
// duplicates — route every directory identically. This is what lets clients
// and shards compute ownership without ever exchanging a table.
func TestRingRoutingDeterministic(t *testing.T) {
	a := NewRing("lm-0", "lm-1", "lm-2", "lm-3")
	b := NewRing("lm-3", "lm-1", "lm-0", "lm-2", "lm-1") // shuffled + dup
	for i := 0; i < 4096; i++ {
		ino := inoFor(i)
		if a.RouteAddr(ino) != b.RouteAddr(ino) {
			t.Fatalf("ino %d: %s vs %s", i, a.RouteAddr(ino), b.RouteAddr(ino))
		}
	}
	if len(b.Members) != 4 {
		t.Fatalf("normalize kept %d members", len(b.Members))
	}
}

// The hash must not drift across code changes: a drifted hash silently
// reshuffles every directory on upgrade, which is exactly the movement the
// rendezvous scheme exists to avoid. Golden values pin it.
func TestRingRoutingGolden(t *testing.T) {
	r := NewRing("leasemgr-0", "leasemgr-1", "leasemgr-2")
	got := ""
	for i := 0; i < 8; i++ {
		got += string(r.RouteAddr(inoFor(i))[len("leasemgr-"):])
	}
	const want = "11202212"
	if got != want {
		t.Fatalf("routing drifted: got %q want %q", got, want)
	}
}

// Adding a member moves directories only onto the new member; removing one
// moves directories only off it (rendezvous minimal movement). Everything
// else stays put — the property that bounds handoff traffic.
func TestRingMinimalMovement(t *testing.T) {
	base := NewRing("lm-0", "lm-1", "lm-2")
	grown := base.With("lm-3")
	if grown.Epoch != base.Epoch+1 {
		t.Fatalf("With must bump the epoch: %d", grown.Epoch)
	}
	moved := 0
	for i := 0; i < 4096; i++ {
		ino := inoFor(i)
		was, is := base.RouteAddr(ino), grown.RouteAddr(ino)
		if was != is {
			moved++
			if is != "lm-3" {
				t.Fatalf("ino %d moved %s→%s, not to the new member", i, was, is)
			}
		}
	}
	if moved == 0 || moved > 4096/2 {
		t.Fatalf("implausible movement on grow: %d of 4096", moved)
	}
	shrunk := grown.Without("lm-1")
	for i := 0; i < 4096; i++ {
		ino := inoFor(i)
		was, is := grown.RouteAddr(ino), shrunk.RouteAddr(ino)
		if was != "lm-1" && was != is {
			t.Fatalf("ino %d moved %s→%s though its owner stayed", i, was, is)
		}
		if is == "lm-1" {
			t.Fatalf("ino %d still routes to the removed member", i)
		}
	}
}

// Shards spread roughly evenly: with 4 shards no shard should own a wildly
// disproportionate share of a large key population.
func TestRingBalance(t *testing.T) {
	r := NewRing("lm-0", "lm-1", "lm-2", "lm-3")
	counts := map[rpc.Addr]int{}
	const n = 8192
	for i := 0; i < n; i++ {
		counts[r.RouteAddr(inoFor(i))]++
	}
	for a, c := range counts {
		if c < n/8 || c > n/2 {
			t.Fatalf("shard %s owns %d of %d", a, c, n)
		}
	}
}

// A RingRouter only moves forward: delayed redirects carrying an older ring
// must not roll the cache back past a newer one.
func TestRingRouterMonotonic(t *testing.T) {
	r1 := NewRing("lm-0", "lm-1")
	r2 := r1.With("lm-2")
	rr := NewRouter(r1)
	rr.Update(r2)
	if rr.Ring().Epoch != r2.Epoch {
		t.Fatalf("newer ring not installed: %v", rr.Ring())
	}
	rr.Update(r1)
	if rr.Ring().Epoch != r2.Epoch {
		t.Fatalf("older ring rolled the cache back: %v", rr.Ring())
	}
	if _, e := rr.Route(types.RootIno); e != r2.Epoch {
		t.Fatalf("Route reports epoch %d, want %d", e, r2.Epoch)
	}
}

// Snapshot codec: a populated grant table round-trips byte-exactly, and a
// flipped byte is detected as corruption rather than half-applied.
func TestSnapshotRoundTrip(t *testing.T) {
	dirs := map[types.Ino]*dirState{}
	for i := 0; i < 64; i++ {
		dirs[inoFor(i)] = &dirState{
			holder:     rpc.Addr(fmt.Sprintf("c%d", i%7)),
			leaseID:    uint64(100 + i),
			expiry:     time.Duration(1e9 + i*1e6),
			clean:      i%3 == 0,
			prevHolder: rpc.Addr(fmt.Sprintf("p%d", i%5)),
			recovering: i%11 == 0,
			recoverID:  uint64(i),
		}
	}
	sus := []suspect{{prev: NewRing("lm-0", "lm-1"), from: "lm-1", expiry: 5e9}}
	frame := encodeSnapshot(dirs, 999, sus)
	if string(frame) != string(encodeSnapshot(dirs, 999, sus)) {
		t.Fatal("encoding is not deterministic")
	}
	st, err := decodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if st.nextID != 999 || len(st.dirs) != len(dirs) || len(st.suspects) != 1 {
		t.Fatalf("decode mismatch: %d dirs, nextID %d", len(st.dirs), st.nextID)
	}
	for ino, want := range dirs {
		got := st.dirs[ino]
		if got == nil || *got != *want {
			t.Fatalf("dir %v: got %+v want %+v", ino, got, want)
		}
	}
	if st.suspects[0].from != "lm-1" || st.suspects[0].prev.Epoch != 1 {
		t.Fatalf("suspect mangled: %+v", st.suspects[0])
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0x40
	if _, err := decodeSnapshot(bad); err == nil {
		t.Fatal("corrupt snapshot decoded cleanly")
	}
}
