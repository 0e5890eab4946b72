package journal

import (
	"context"
	"fmt"

	"arkfs/internal/crashpoint"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Two-phase commit across per-directory journals (paper §III-E): a RENAME
// whose source and destination directories differ must commit one journal
// entry in each journal atomically. The source directory's leader
// coordinates; both journals receive prepare records, the coordinator's
// journal receives the decision, and prepared transactions are applied only
// after the decision is durable. Recovery uses presumed abort.

// WritePrepare synchronously journals a prepare record carrying ops for dir.
// peer is the coordinating directory (for participants) or the participant
// directory (for the coordinator); recovery follows it to find the decision.
// The prepare stands behind a durability barrier: every record sealed before
// it must be durable first, so a prepared transaction never depends on a
// record that could still be lost (it does not wait for checkpoints — replay
// order is what matters, and the watermark guarantees the replayable prefix).
// The prepare write becomes a child span of the trace in ctx (the rename
// operation driving the 2PC).
func (j *Journal) WritePrepare(ctx context.Context, dir types.Ino, txid uint64, peer types.Ino, ops []wire.Op) error {
	if err := j.Barrier(dir); err != nil {
		return fmt.Errorf("journal: pre-prepare barrier: %w", err)
	}
	dj := j.dirJournal(dir)
	dj.mu.Lock()
	seq := dj.nextSeq
	dj.nextSeq++
	dj.mu.Unlock()
	txn := &wire.Txn{
		ID: txid, Dir: dir, Kind: wire.TxnPrepare, Peer: peer,
		Stamp: j.env.Now(), Ops: ops,
	}
	key := prt.JournalKey(dir, seq)
	meta := rpc.MetaFrom(ctx)
	sp := j.trace.StartChild(meta.Span, "journal.2pc.prepare", key)
	sp.SetDir(dir)
	sp.SetTenant(meta.Tenant)
	put := j.trace.StartChild(sp.Context(), "objstore.put", key)
	put.SetTenant(meta.Tenant)
	err := j.tr.Store().Put(key, wire.EncodeTxn(txn))
	put.End(err)
	sp.End(err)
	// Written or not, the slot is resolved: a failed synchronous PUT leaves a
	// hole the watermark (and recovery) tolerates, and blocking the watermark
	// on it would wedge every later barrier.
	j.markSeqResolved(dj, seq)
	if err != nil {
		return fmt.Errorf("journal: write prepare %s: %w", key, err)
	}
	dj.mu.Lock()
	dj.prepared[txid] = seq
	dj.prepOps[txid] = ops
	dj.mu.Unlock()
	j.c2pcPrepares.Inc()
	j.cfg.Crash.Hit(crashpoint.TwoPCPostPrepare)
	return nil
}

// WriteDecision synchronously journals the coordinator's commit/abort
// decision for txid in dir's journal. peer is the participant directory;
// recovery keeps the decision record alive until the participant's prepare
// record has been resolved, so a doubly-crashed rename still converges.
func (j *Journal) WriteDecision(ctx context.Context, dir types.Ino, txid uint64, peer types.Ino, commit bool) error {
	dj := j.dirJournal(dir)
	dj.mu.Lock()
	seq := dj.nextSeq
	dj.nextSeq++
	dj.mu.Unlock()
	kind := wire.TxnCommit
	if !commit {
		kind = wire.TxnAbort
	}
	txn := &wire.Txn{ID: txid, Dir: dir, Kind: kind, Peer: peer, Stamp: j.env.Now()}
	key := prt.JournalKey(dir, seq)
	meta := rpc.MetaFrom(ctx)
	sp := j.trace.StartChild(meta.Span, "journal.2pc.decision", key)
	sp.SetDir(dir)
	sp.SetTenant(meta.Tenant)
	put := j.trace.StartChild(sp.Context(), "objstore.put", key)
	put.SetTenant(meta.Tenant)
	err := j.tr.Store().Put(key, wire.EncodeTxn(txn))
	put.End(err)
	sp.End(err)
	// Resolve the slot either way so the durability watermark can pass it
	// (see WritePrepare).
	j.markSeqResolved(dj, seq)
	if err != nil {
		return fmt.Errorf("journal: write decision %s: %w", key, err)
	}
	dj.mu.Lock()
	if dj.decisions == nil {
		dj.decisions = make(map[uint64]uint64)
	}
	dj.decisions[txid] = seq
	dj.mu.Unlock()
	if commit {
		j.c2pcCommits.Inc()
	} else {
		j.c2pcAborts.Inc()
	}
	j.cfg.Crash.Hit(crashpoint.TwoPCPostDecision)
	return nil
}

// DeleteDecision garbage-collects a decision record once every participant
// has resolved its prepare. Deleting earlier would turn a committed rename
// into a presumed abort on a crashed participant's recovery.
func (j *Journal) DeleteDecision(dir types.Ino, txid uint64) error {
	dj := j.dirJournal(dir)
	dj.mu.Lock()
	dseq, ok := dj.decisions[txid]
	delete(dj.decisions, txid)
	dj.mu.Unlock()
	if !ok {
		return nil
	}
	if err := j.tr.Store().Delete(prt.JournalKey(dir, dseq)); err != nil {
		return fmt.Errorf("journal: gc decision %d: %w", txid, err)
	}
	return nil
}

// ResolvePrepared applies (commit=true) or discards (commit=false) a
// prepared transaction and removes its prepare record. The coordinator's
// decision record is GC'd separately via DeleteDecision. It runs through the
// directory's checkpoint worker to stay serialized with normal checkpoints;
// the checkpoint span parents under the trace in ctx.
func (j *Journal) ResolvePrepared(ctx context.Context, dir types.Ino, txid uint64, commit bool) error {
	dj := j.dirJournal(dir)
	dj.mu.Lock()
	seq, okSeq := dj.prepared[txid]
	ops := dj.prepOps[txid]
	delete(dj.prepared, txid)
	delete(dj.prepOps, txid)
	var del []string
	if okSeq {
		del = append(del, prt.JournalKey(dir, seq))
	}
	dj.mu.Unlock()
	if !okSeq {
		return fmt.Errorf("journal: no prepared txn %d for %s: %w", txid, dir.Short(), types.ErrInval)
	}
	applied := ops
	if !commit {
		applied = []wire.Op{} // non-nil: still delete the records
	}
	done := sim.NewChan[error](j.env)
	if !j.ckptQ(dir).Send(&ckptItem{dj: dj, ops: applied, del: del, sc: rpc.MetaFrom(ctx).Span, done: done}) {
		return fmt.Errorf("journal: shut down resolving txn %d: %w", txid, types.ErrIO)
	}
	err, ok := done.Recv()
	if !ok {
		return fmt.Errorf("journal: shut down resolving txn %d: %w", txid, types.ErrIO)
	}
	return err
}
