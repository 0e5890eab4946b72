package journal

import (
	"errors"
	"fmt"
	"sort"

	"arkfs/internal/metatable"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Report summarizes one directory's journal recovery.
type Report struct {
	// Replayed counts committed transactions applied to the originals.
	Replayed int
	// Committed2PC and Aborted2PC count resolved prepared transactions;
	// Undecided2PC counts prepares retained because a corrupt record hides
	// the coordinator's decision.
	Committed2PC int
	Aborted2PC   int
	Undecided2PC int
	// Pending lists the participant's prepares retained unresolved: their
	// coordinator may still decide (fate Wait), or a corrupt record hides its
	// decision (Undecided). The new leader holds them as the participant it
	// succeeds did, and the decision leg or its resolver resolves them.
	Pending []Rename
	// Corrupt counts records that failed CRC/decode (torn or bit-rotted).
	Corrupt int
	// Truncated counts records discarded by the truncation rule: the first
	// corrupt record and everything after it in sequence order.
	Truncated int
	// NextSeq is one past the highest sequence observed; the new leader
	// primes its journal with it.
	NextSeq uint64
}

// Recover scans dir's journal after a leadership change. Valid transactions
// remaining in the journal mean the previous leader crashed before
// checkpointing (paper §III-E-1); they are replayed in sequence order.
// Prepared transactions are resolved by fate, through the coordinator's
// journal. All of dir's journal objects are removed on success, except the
// prepares Report.Pending retains and the decisions a participant still needs.
//
// Corruption follows the truncation rule: the journal is cut at the first
// record that fails verification, and every later record is discarded
// unreplayed — a transaction is only durable if every record before it is
// intact, exactly like a single-file write-ahead log. Replaying past a gap
// could apply operations whose prerequisites were in the lost record.
//
// Recover does one round trip after another; a client taking a directory over
// calls its journal's Recover method.
func Recover(tr *prt.Translator, dir types.Ino) (Report, error) {
	return (&Journal{tr: tr}).recoverDir(dir)
}

// Recover is the package's Recover as the new leader of dir runs it: the
// record GETs and the replay's inode writes overlap, CheckpointFanout at a
// time (records are still verified, cut and replayed strictly in sequence
// order), integrity counters go to the journal's registry, and on success
// dir's sequence is primed with one past the highest sequence observed.
func (j *Journal) Recover(dir types.Ino) (Report, error) {
	rep, err := j.recoverDir(dir)
	if err == nil {
		// Everything below NextSeq was replayed or discarded.
		dj := j.dirJournal(dir)
		dj.mu.Lock()
		j.settle(dj, dj.p.reset(rep.NextSeq))
	}
	return rep, err
}

// LoadTable builds dir's metatable for its new leader: metatable.LoadWith on
// the journal's environment and store, the child-inode GETs in the background
// under the same bound as the checkpoint writes that put those inodes there.
// dropped (may be nil) hears of each child dropped after it returns.
func (j *Journal) LoadTable(dir types.Ino, degraded bool, dropped func(lost int)) (*metatable.Table, int, error) {
	return metatable.LoadWith(j.env, j.cfg.CheckpointFanout, j.tr, dir, degraded, dropped)
}

// recoverDir is the recovery pass itself. It uses j's store, environment,
// fan-out and registry only, so a Journal that holds nothing but a translator
// (no workers, no environment: every fan-out runs inline) is the serial form.
func (j *Journal) recoverDir(dir types.Ino) (Report, error) {
	var rep Report
	reg := j.cfg.Obs
	detected := reg.Counter("integrity.detected")
	truncated := reg.Counter("integrity.truncated")
	listed, err := j.tr.Store().List(prt.JournalPrefix(dir))
	if err != nil {
		return rep, fmt.Errorf("journal: recovery list: %w", err)
	}
	keys := listed[:0]
	for _, key := range listed {
		seq, err := prt.ParseJournalSeq(key)
		if err != nil {
			// Not a journal record at all; count it but leave it for the
			// scrubber — it does not occupy a slot in the sequence.
			rep.Corrupt++
			detected.Inc()
			continue
		}
		if seq+1 > rep.NextSeq {
			rep.NextSeq = seq + 1
		}
		keys = append(keys, key)
	}
	// Keys encode the sequence in fixed-width hex, so lexical order is
	// sequence order; List already sorts. Re-sort defensively anyway.
	sort.Strings(keys)
	// Every record is fetched before the first is looked at, so what follows
	// sees them in sequence order however the GETs completed.
	recs, err := j.readRecords(keys)
	if err != nil {
		return rep, fmt.Errorf("journal: recovery: %w", err)
	}

	live := recs[:0]
	cut := false
	for _, r := range recs {
		switch {
		case cut || r.corrupt():
			// The first record that is corrupt at rest (it survived a
			// confirming re-read) cuts the journal: it and everything after it
			// is discarded without replaying.
			if !cut {
				rep.Corrupt++
				detected.Inc()
				cut = true
			}
			rep.Truncated++
			truncated.Inc()
			if derr := j.tr.Store().Delete(r.key); derr != nil {
				return rep, fmt.Errorf("journal: recovery truncate %s: %w", r.key, derr)
			}
		case r.missing:
			// raced with a concurrent invalidation
		default:
			live = append(live, r)
		}
	}

	for _, r := range live {
		switch r.txn.Kind {
		case wire.TxnNormal:
			if err := j.applyOpsRepair(dir, r.txn.Ops); err != nil {
				return rep, fmt.Errorf("journal: recovery replay %s: %w", r.key, err)
			}
			rep.Replayed++
		case wire.TxnPrepare, wire.TxnCoordPrepare:
			// A coordinator's decision is in its own journal, which is this
			// one for a coordinator's prepare.
			coord := live
			if r.txn.Kind == wire.TxnPrepare {
				if coord, err = j.scan(r.txn.Peer); err != nil {
					return rep, err
				}
			}
			switch fate(coord, r.txn.ID, r.txn.Kind == wire.TxnCoordPrepare) {
			case Commit:
				if err := j.applyOpsRepair(dir, r.txn.Ops); err != nil {
					return rep, fmt.Errorf("journal: recovery 2pc apply txn %d: %w", r.txn.ID, err)
				}
				rep.Committed2PC++
			case Abort:
				rep.Aborted2PC++
			case Undecided:
				rep.Undecided2PC++
				fallthrough
			case Wait:
				seq, _ := prt.ParseJournalSeq(r.key)
				rep.Pending = append(rep.Pending, Rename{TxID: r.txn.ID, Dir: dir, Peer: r.txn.Peer, Ops: r.txn.Ops, prep: seq})
				continue // retained
			}
		case wire.TxnCommit, wire.TxnAbort:
			// Decision records are consumed by the peer's recovery or its
			// resolver: keep the record while they still need it.
			recs, err := j.scan(r.txn.Peer)
			if err != nil {
				return rep, err
			}
			if keepDecision(recs, r.txn.ID) {
				continue
			}
		default:
			rep.Corrupt++
			detected.Inc()
		}
		if err := j.tr.Store().Delete(r.key); err != nil {
			return rep, fmt.Errorf("journal: recovery invalidate %s: %w", r.key, err)
		}
	}
	return rep, nil
}

// scanned is one journal record as a scan found it: read and verified (txn
// is set), deleted underneath the scan (missing), or corrupt at rest
// (neither). There is no fourth outcome: a store error that is not "not
// found" fails the scan, because a record that could not be read may be the
// very prepare or decision the scan is looking for.
type scanned struct {
	key     string
	txn     *wire.Txn
	missing bool
}

func (r scanned) corrupt() bool { return r.txn == nil && !r.missing }

// scan lists dir's journal and reads every record in it.
func (j *Journal) scan(dir types.Ino) ([]scanned, error) {
	keys, err := j.tr.Store().List(prt.JournalPrefix(dir))
	if err != nil {
		return nil, fmt.Errorf("journal: scan of %s: %w", dir.Short(), err)
	}
	return j.readRecords(keys)
}

// readRecords is the one journal record reader: it fetches and verifies the
// records under keys, CheckpointFanout GETs at a time, and returns them in
// the order of keys.
func (j *Journal) readRecords(keys []string) ([]scanned, error) {
	recs := make([]scanned, len(keys))
	err := sim.FanOut(j.env, len(keys), j.cfg.CheckpointFanout, func(i int) error {
		txn, found, err := readTxn(j.tr, keys[i])
		if err != nil {
			return fmt.Errorf("journal: read %s: %w", keys[i], err)
		}
		recs[i] = scanned{key: keys[i], txn: txn, missing: !found}
		return nil
	})
	return recs, err
}

// readTxn fetches and decodes one journal record. A record that fails
// verification is re-read once before being declared corrupt, so transient
// read-side corruption (a flipped bit on the wire, not at rest) cannot make
// recovery truncate an acknowledged transaction. Returns (nil, true, nil)
// for a record that is verifiably corrupt at rest and (nil, false, nil) for
// a record deleted underneath the scan.
func readTxn(tr *prt.Translator, key string) (*wire.Txn, bool, error) {
	for attempt := 0; attempt < 2; attempt++ {
		raw, err := tr.Store().Get(key)
		if err != nil {
			if errors.Is(err, types.ErrNotExist) {
				return nil, false, nil
			}
			return nil, false, err
		}
		if txn, derr := wire.DecodeTxn(raw); derr == nil {
			return txn, true, nil
		}
	}
	return nil, true, nil
}
