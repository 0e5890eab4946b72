package core

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// leaseOp is one transition of a leaseTable, on one file.
type leaseOp struct {
	kind   string // grant, made, release, takeWriter or drop
	client rpc.Addr
	write  bool
	grant  uint64 // release: the number the return names
}

func (o leaseOp) String() string {
	switch o.kind {
	case "grant", "made":
		return fmt.Sprintf("%s(%s, write=%v)", o.kind, o.client, o.write)
	case "release":
		return fmt.Sprintf("release(%s, %d)", o.client, o.grant)
	}
	return o.kind
}

// TestLeaseTableExhaustive runs every sequence of at most four transitions by
// two holders, the leader itself (whose grants carry no number) and one remote
// client, and checks the rule after each step: a writer is the only holder and
// the file is not direct; no entry is left with no holders; a return that
// names a grant older than its client's latest listing leaves the client
// listed, and one that names the latest does not; and every conflicting grant
// recalls every other holder, whose cache may be stale, while no other grant
// recalls anyone. A create's row is a new inode's first transition.
func TestLeaseTableExhaustive(t *testing.T) {
	const leader, remote = rpc.Addr("leader"), rpc.Addr("remote")
	var ops []leaseOp
	for _, c := range []rpc.Addr{leader, remote} {
		for _, w := range []bool{false, true} {
			ops = append(ops, leaseOp{kind: "grant", client: c, write: w}, leaseOp{kind: "made", client: c, write: w})
		}
	}
	ops = append(ops, leaseOp{kind: "release", client: leader})
	for g := uint64(0); g <= 3; g++ {
		ops = append(ops, leaseOp{kind: "release", client: remote, grant: g})
	}
	ops = append(ops, leaseOp{kind: "takeWriter"}, leaseOp{kind: "drop"})

	runs := 0
	var run []leaseOp
	var explore func()
	explore = func() {
		for _, op := range ops {
			if t.Failed() || op.kind == "made" && len(run) > 0 {
				continue
			}
			run = append(run, op)
			runs++
			checkLeaseRun(t, run, remote)
			if len(run) < 4 {
				explore()
			}
			run = run[:len(run)-1]
		}
	}
	explore()
	t.Logf("%d sequences", runs)
}

// checkLeaseRun replays run on an empty table and checks it after each step;
// remote is the client whose open grants are numbered.
func checkLeaseRun(t *testing.T, run []leaseOp, remote rpc.Addr) {
	t.Helper()
	ino := types.Ino{1}
	tab := make(leaseTable)
	var seq uint64                  // the last number given
	latest := map[rpc.Addr]uint64{} // each listed client's latest number
	for i, op := range run {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("%v: "+format, append([]any{run[:i+1]}, args...)...)
		}
		before := tab[ino]
		before.holders = maps.Clone(before.holders)
		var recall []rpc.Addr
		switch op.kind {
		case "grant":
			var n uint64
			if op.client == remote && !op.write {
				seq++
				n = seq
				latest[remote] = n
			}
			_, recall = tab.grant(ino, op.client, op.write, n)
		case "made":
			tab.made(ino, op.client, op.write)
		case "release":
			tab.release(ino, op.client, op.grant)
		case "takeWriter":
			tab.takeWriter(ino)
		case "drop":
			tab.drop(ino)
		}
		fl, ok := tab[ino]
		if ok && len(fl.holders) == 0 {
			fail("an entry with no holders")
		}
		if fl.writer != "" && (len(fl.holders) != 1 || !tab.holds(ino, fl.writer) || fl.direct) {
			fail("writer %s beside holders %v, direct %v", fl.writer, fl.holders, fl.direct)
		}
		if _, was := before.holders[op.client]; op.kind == "release" && was {
			if stale := op.grant < latest[op.client]; tab.holds(ino, op.client) != stale {
				fail("a return naming %d, latest %d: client listed %v", op.grant, latest[op.client], !stale)
			}
		}
		if op.kind == "grant" {
			var others []rpc.Addr
			for h := range before.holders {
				if h != op.client {
					others = append(others, h)
				}
			}
			conflict := !before.direct && (op.write && len(others) > 0 || before.writer != "" && before.writer != op.client)
			switch {
			case conflict && !fl.direct:
				fail("a conflict left the file cached")
			case !conflict && len(recall) > 0:
				fail("recalled %v with no conflict", recall)
			}
			for _, h := range others {
				if conflict && !slices.Contains(recall, h) {
					fail("the conflict did not recall %s (recalled %v)", h, recall)
				}
			}
		}
		for c := range latest {
			if !tab.holds(ino, c) {
				delete(latest, c)
			}
		}
	}
}
