package lease

import (
	"fmt"
	"testing"

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

// Snapshot codec: a populated grant table round-trips byte-exactly, and a
// flipped byte is detected as corruption rather than half-applied.
func TestSnapshotRoundTrip(t *testing.T) {
	tab := newGrants(0)
	for i := 0; i < 64; i++ {
		tab.dirs[inoFor(i)] = &DirGrant{
			Dir:        inoFor(i),
			Holder:     rpc.Addr(fmt.Sprintf("c%d", i%7)),
			LeaseID:    uint64(100 + i),
			Clean:      i%3 == 0,
			PrevHolder: rpc.Addr(fmt.Sprintf("p%d", i%5)),
			Recovering: i%11 == 0,
			RecoverID:  uint64(i),
		}
	}
	tab.nextID = 999
	frame := encodeSnapshot(tab)
	if string(frame) != string(encodeSnapshot(tab)) {
		t.Fatal("encoding is not deterministic")
	}
	st, err := decodeSnapshot(frame)
	if err != nil {
		t.Fatal(err)
	}
	if st.nextID != 999 || len(st.dirs) != len(tab.dirs) {
		t.Fatalf("decode mismatch: %d dirs, nextID %d", len(st.dirs), st.nextID)
	}
	for ino, want := range tab.dirs {
		got := st.dirs[ino]
		if got == nil || *got != *want {
			t.Fatalf("dir %v: got %+v want %+v", ino, got, want)
		}
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)/2] ^= 0x40
	if _, err := decodeSnapshot(bad); err == nil {
		t.Fatal("corrupt snapshot decoded cleanly")
	}
}
