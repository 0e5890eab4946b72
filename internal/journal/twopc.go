package journal

import (
	"context"
	"fmt"
	"time"

	"arkfs/internal/crashpoint"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Two-phase commit across per-directory journals (paper §III-E): a RENAME
// between two directories commits one entry in each journal atomically. The
// source's leader coordinates: both journals take a prepare, the
// coordinator's takes the decision, and each side applies its ops once the
// decision is durable. DESIGN.md §8 lists the steps in order.
//
// The rule that decides a prepared rename's fate is written once, here: fate,
// keepDecision, and Rename's Decide and Due. None takes an env or does I/O:
// callers pass the clock, the lease and the records a scan found. Recovery,
// the resolver and both legs are glue around them.

// Fate is what the records say about a prepared rename.
type Fate uint8

const (
	// Wait: the coordinator's prepare stands with no decision, and the
	// leader that wrote it may still decide.
	Wait Fate = iota
	Commit
	Abort
	// Undecided: a corrupt record in the coordinator's journal may be the
	// decision. The coordinator's own recovery truncates it.
	Undecided
)

// Decided reports whether f resolves the rename.
func (f Fate) Decided() bool { return f == Commit || f == Abort }

// fate is the one rule. recs is the coordinator directory's journal as a scan
// found it; stale says that the leader which wrote the coordinator's prepare
// can no longer decide, because its successor is recovering that journal. A
// decision record is the answer. Without one, a corrupt record may be it, and
// a prepare whose leader may still decide means wait. No trace of the
// transaction means the coordinator resolved it without a decision: it
// prepares before the participant does and keeps a decision until the
// participant has resolved. That, and a stale prepare, is presumed abort.
func fate(recs []scanned, txid uint64, stale bool) Fate {
	var corrupt, prepared bool
	for _, r := range recs {
		switch {
		case r.corrupt():
			corrupt = true
		case r.missing || r.txn.ID != txid:
		case r.txn.Kind == wire.TxnCommit:
			return Commit
		case r.txn.Kind == wire.TxnAbort:
			return Abort
		case r.txn.Kind == wire.TxnCoordPrepare:
			prepared = true
		}
	}
	switch {
	case corrupt:
		return Undecided
	case prepared && !stale:
		return Wait
	}
	return Abort
}

// keepDecision reports whether the coordinator keeps its decision record for
// txid: while the participant's journal, recs, holds the participant's
// prepare, or a corrupt record that may be it. Dropped earlier, the decision
// would turn into a presumed abort at the participant's recovery.
func keepDecision(recs []scanned, txid uint64) bool {
	for _, r := range recs {
		if r.corrupt() || !r.missing && r.txn.ID == txid && r.txn.Kind == wire.TxnPrepare {
			return true
		}
	}
	return false
}

// Rename is one side of a cross-directory rename as the leader of that side's
// directory holds it, from its prepare until it resolves. The coordinator's
// lives for one rename call. A participant's is held beside the table its
// tentative entry is in, until the decision leg or the resolver resolves it,
// and goes with that table; a successor that recovers the directory holds it
// again if it is still undecided (Report.Pending).
type Rename struct {
	TxID  uint64
	Dir   types.Ino     // this side's directory
	Peer  types.Ino     // the other side's
	Coord bool          // Dir coordinates: its journal takes the decision
	Ops   []wire.Op     // what a commit applies to Dir
	At    time.Duration // when this leader took the prepare on: wrote or recovered it
	// Replaced is the entry a participant's tentative insert displaced.
	Replaced *types.Inode

	prep     uint64 // sequence of this side's prepare record
	decision uint64 // sequence of the coordinator's decision record, if decided
	decided  bool
}

// Entry returns the name and the inode a participant's ops add: the entry it
// inserts tentatively while the rename is undecided.
func (r Rename) Entry() (name string, child *types.Inode) {
	for _, op := range r.Ops {
		switch op.Kind {
		case wire.OpAddDentry:
			name = op.Name
		case wire.OpSetInode:
			child = op.Inode
		}
	}
	return name, child
}

// Decide is the coordinator's second phase, given whether the participant
// answered its prepare and whether this leader still leads Dir. One that no
// longer does writes no decision: its successor may already have presumed
// the rename aborted (fate with stale), so it resolves its own side as an
// abort and leaves the participant to find no trace of the rename.
func (r Rename) Decide(prepared, leads bool) (commit, write bool) {
	return prepared && leads, leads
}

// Due reports whether the resolver asks the coordinator's journal about a
// participant's rename now: its leader still leads Dir, and the coordinator
// has had period to decide since this leader took the prepare on. A leader
// whose lease lapsed does not act: if a successor recovers Dir, the prepare
// is the successor's, and the tentative entry is gone with the old table.
func (r Rename) Due(now, period time.Duration, leads bool) bool {
	return leads && now-r.At >= period
}

// writeRecord puts txn synchronously in the next slot of its directory's
// journal, under a child span of the trace in ctx, and returns the slot.
// Written or not, the slot is resolved: a failed synchronous PUT leaves a hole
// the watermark (and recovery) tolerates, and blocking the watermark on it
// would wedge every later barrier. On success it counts count and hits site.
func (j *Journal) writeRecord(ctx context.Context, txn *wire.Txn, what string, count *obs.Counter, site crashpoint.Site) (uint64, error) {
	dj := j.dirJournal(txn.Dir)
	dj.mu.Lock()
	seq := dj.p.reserve()
	dj.mu.Unlock()
	txn.Stamp = j.env.Now()
	key := prt.JournalKey(txn.Dir, seq)
	sp := j.trace.StartChild(rpc.MetaFrom(ctx).Span, "journal.2pc."+what, key)
	sp.SetDir(txn.Dir)
	put := j.trace.StartChild(sp.Context(), "objstore.put", key)
	err := j.tr.Store().Put(key, wire.EncodeTxn(txn))
	put.End(err)
	sp.End(err)
	dj.mu.Lock()
	j.settle(dj, dj.p.hole(seq))
	if err != nil {
		return 0, fmt.Errorf("journal: write %s %s: %w", what, key, err)
	}
	count.Inc()
	j.cfg.Crash.Hit(site)
	return seq, nil
}

// WritePrepare journals r's prepare record, carrying r.Ops, once every
// record sealed before it in r.Dir is durable: a prepared rename never
// depends on a record that could still be lost. Recovery follows r.Peer.
func (j *Journal) WritePrepare(ctx context.Context, r *Rename) error {
	if err := j.Barrier(r.Dir); err != nil {
		return fmt.Errorf("journal: pre-prepare barrier: %w", err)
	}
	kind := wire.TxnPrepare
	if r.Coord {
		kind = wire.TxnCoordPrepare
	}
	txn := &wire.Txn{ID: r.TxID, Dir: r.Dir, Kind: kind, Peer: r.Peer, Ops: r.Ops}
	seq, err := j.writeRecord(ctx, txn, "prepare", j.c2pcPrepares, crashpoint.TwoPCPostPrepare)
	r.prep = seq
	return err
}

// WriteDecision journals the coordinator's decision for r in r.Dir. Recovery
// keeps the record until the participant's prepare is resolved, so a doubly
// crashed rename still converges.
func (j *Journal) WriteDecision(ctx context.Context, r *Rename, commit bool) error {
	kind, count := wire.TxnCommit, j.c2pcCommits
	if !commit {
		kind, count = wire.TxnAbort, j.c2pcAborts
	}
	txn := &wire.Txn{ID: r.TxID, Dir: r.Dir, Kind: kind, Peer: r.Peer}
	seq, err := j.writeRecord(ctx, txn, "decision", count, crashpoint.TwoPCPostDecision)
	r.decision, r.decided = seq, err == nil
	return err
}

// DeleteDecision garbage-collects r's decision record once the participant
// has resolved its prepare durably. Deleting earlier would turn a committed
// rename into a presumed abort on a crashed participant's recovery.
func (j *Journal) DeleteDecision(r Rename) error {
	if !r.decided {
		return nil
	}
	if err := j.tr.Store().Delete(prt.JournalKey(r.Dir, r.decision)); err != nil {
		return fmt.Errorf("journal: gc decision %d: %w", r.TxID, err)
	}
	return nil
}

// ResolvePrepared applies (commit=true) or discards (commit=false) r's ops and
// removes its prepare record. The coordinator's decision record is GC'd
// separately via DeleteDecision. It runs through the directory's checkpoint
// worker to stay serialized with normal checkpoints; the checkpoint span
// parents under the trace in ctx. It answers for its own apply only: an
// earlier record's loss is the next barrier's error.
func (j *Journal) ResolvePrepared(ctx context.Context, r Rename, commit bool) error {
	applied := &wire.Txn{}
	if commit {
		applied.Ops = r.Ops
	}
	return j.await(&record{dj: j.dirJournal(r.Dir), key: prt.JournalKey(r.Dir, r.prep), txn: applied, sc: rpc.MetaFrom(ctx).Span})
}

// Probe reads the coordinator's journal for a participant's rename r, one
// record after another, and returns its fate.
func (j *Journal) Probe(r Rename) (Fate, error) {
	recs, err := (&Journal{tr: j.tr}).scan(r.Peer)
	if err != nil {
		return Wait, err
	}
	return fate(recs, r.TxID, false), nil
}
