package journal

import (
	"errors"
	"fmt"
	"sort"

	"arkfs/internal/metatable"
	"arkfs/internal/obs"
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
// Prepared transactions are resolved through the coordinator's journal with
// presumed abort. All of dir's journal objects are removed on success.
//
// Corruption follows the truncation rule: the journal is cut at the first
// record that fails verification, and every later record is discarded
// unreplayed — a transaction is only durable if every record before it is
// intact, exactly like a single-file write-ahead log. Replaying past a gap
// could apply operations whose prerequisites were in the lost record.
//
// Recover and RecoverWith do one round trip after another; a client taking a
// directory over calls its journal's Recover method.
func Recover(tr *prt.Translator, dir types.Ino) (Report, error) {
	return RecoverWith(tr, dir, nil)
}

// RecoverWith is Recover with integrity counters registered on reg
// (integrity.detected, integrity.truncated, integrity.repaired). A nil
// registry is inert.
func RecoverWith(tr *prt.Translator, dir types.Ino, reg *obs.Registry) (Report, error) {
	return (&Journal{tr: tr, cfg: Config{Obs: reg}}).recoverDir(dir)
}

// Recover is the package's Recover as the new leader of dir runs it: the
// record GETs and the replay's inode writes overlap, CheckpointFanout at a
// time (records are still verified, cut and replayed strictly in sequence
// order), integrity counters go to the journal's registry, and on success
// dir's sequence is primed with one past the highest sequence observed.
func (j *Journal) Recover(dir types.Ino) (Report, error) {
	rep, err := j.recoverDir(dir)
	if err == nil {
		j.setNextSeq(dir, rep.NextSeq)
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
		case wire.TxnPrepare:
			committed, undecided, err := j.decisionFor(r.txn)
			if err != nil {
				return rep, err
			}
			if undecided {
				// A corrupt record in the coordinator's journal may be the
				// decision: neither commit nor presume abort. Retain the
				// prepare; the coordinator's own recovery truncates the bad
				// record and a later pass resolves it.
				rep.Undecided2PC++
				continue
			}
			if committed {
				if err := j.applyOpsRepair(dir, r.txn.Ops); err != nil {
					return rep, fmt.Errorf("journal: recovery 2pc apply txn %d: %w", r.txn.ID, err)
				}
				rep.Committed2PC++
			} else {
				rep.Aborted2PC++
			}
		case wire.TxnCommit, wire.TxnAbort:
			// Decision records are consumed by the peer's recovery. Keep the
			// record while the participant's prepare is still outstanding —
			// deleting it early would flip a committed rename into a
			// presumed abort on the participant's side.
			if outstanding, err := j.hasPrepare(r.txn.Peer, r.txn.ID); err != nil {
				return rep, err
			} else if outstanding {
				continue // retain; the participant's recovery needs it
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

// verdict is what one journal's records say about transaction txid: whether
// it was decided and how, whether its prepare record is there, and whether a
// corrupt record (which may be either of them) is.
func verdict(recs []scanned, txid uint64) (decided, commit, sawCorrupt, sawPrepare bool) {
	for _, r := range recs {
		switch {
		case r.corrupt():
			sawCorrupt = true
		case r.missing || r.txn.ID != txid:
		case r.txn.Kind == wire.TxnCommit:
			decided, commit = true, true
		case r.txn.Kind == wire.TxnAbort:
			decided = true
		case r.txn.Kind == wire.TxnPrepare:
			sawPrepare = true
		}
	}
	return decided, commit, sawCorrupt, sawPrepare
}

// hasPrepare reports whether dir's journal still holds a prepare record for
// txid. A record that cannot be decoded is conservatively treated as the
// prepare: retaining a decision record longer than necessary is harmless,
// while dropping one early flips a committed rename into a presumed abort.
func (j *Journal) hasPrepare(dir types.Ino, txid uint64) (bool, error) {
	if dir.IsNil() {
		return false, nil
	}
	recs, err := j.scan(dir)
	if err != nil {
		return false, err
	}
	_, _, sawCorrupt, sawPrepare := verdict(recs, txid)
	return sawCorrupt || sawPrepare, nil
}

// decisionFor locates the coordinator's decision for a prepared transaction.
// For a coordinator's own prepare (peer journal holds no decision), its own
// journal is scanned too. Missing decision = presumed abort — but only when
// every record scanned was readable: a corrupt record could be the commit
// decision, so its presence makes the outcome undecided rather than abort.
func (j *Journal) decisionFor(prepare *wire.Txn) (committed, undecided bool, err error) {
	sawCorrupt := false
	for _, dir := range []types.Ino{prepare.Peer, prepare.Dir} {
		if dir.IsNil() {
			continue
		}
		recs, err := j.scan(dir)
		if err != nil {
			return false, false, err
		}
		decided, commit, corrupt, _ := verdict(recs, prepare.ID)
		if decided {
			return commit, false, nil
		}
		sawCorrupt = sawCorrupt || corrupt
	}
	// With a corrupt record the decision may be inside it; without one,
	// presumed abort.
	return false, sawCorrupt, nil
}

// PendingDecision consults the coordinator directory's journal for the fate
// of a prepared transaction a live participant is still holding in memory.
// Outcomes:
//   - a decision record for txid exists: decided, with its commit/abort;
//   - the coordinator's own prepare record for txid still exists: the
//     coordinator has not decided (alive but slow, or crashed and not yet
//     recovered) — keep waiting;
//   - neither exists: the coordinator's recovery ran and resolved the
//     transaction by presumed abort (a retained commit decision would still
//     be present while our prepare is outstanding), so the answer is abort.
//
// The coordinator always journals its own prepare before contacting the
// participant, so "no trace of txid" can only mean a completed recovery.
func PendingDecision(tr *prt.Translator, coordDir types.Ino, txid uint64) (decided, commit bool, err error) {
	recs, err := (&Journal{tr: tr}).scan(coordDir)
	if err != nil {
		return false, false, err
	}
	decided, commit, sawCorrupt, sawPrepare := verdict(recs, txid)
	if decided {
		return true, commit, nil
	}
	// A corrupt record may be the decision for txid (the coordinator's
	// recovery truncates it; probe again later), and a prepare means the
	// coordinator has yet to decide: undecided. No trace: presumed abort.
	return !sawCorrupt && !sawPrepare, false, nil
}

// HasValidEntries reports whether dir's journal contains any records — the
// check a new leader performs to decide if recovery is needed.
func HasValidEntries(tr *prt.Translator, dir types.Ino) (bool, error) {
	keys, err := tr.Store().List(prt.JournalPrefix(dir))
	if err != nil {
		return false, fmt.Errorf("journal: entry check: %w", err)
	}
	return len(keys) > 0, nil
}
