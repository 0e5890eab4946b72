package lease

import (
	"time"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// The directory lease's rule, both sides of it: what a holder may do with a
// grant (DirLease) and every decision the manager makes about a directory's
// chain (grants). Neither takes an env: callers pass their own clock's now
// and hold their own lock. Each side counts on its own clock, so no instant
// crosses the wire between them (DESIGN.md §5.9): the holder counts a grant
// from its send of the request and keeps a quarter of the period in hand;
// the manager counts a full period from its answer and hands a lapsed
// holder's directory to anyone else only one further period later.

// DirLease is a holder's side of a directory lease (paper §III-B): the grant
// chain's fencing token and when the lease ends on the holder's clock. The
// manager grants a period counted from its answer; the holder counts it from
// its own send of the request, which came first, so the holder's lease ends
// first.
type DirLease struct {
	id     uint64        // fencing token of the grant chain
	until  time.Duration // end of the lease: the request's send plus period
	period time.Duration // the granted length
}

// Grant records a grant of period under id, requested at sent.
func (l *DirLease) Grant(sent, period time.Duration, id uint64) {
	l.id, l.until, l.period = id, sent+period, period
}

// Serves reports whether an operation may start on the lease now: a quarter
// of the period is kept in hand, so that nothing of unbounded length lies
// between this check and the lease's end, and a manager clock up to a third
// faster than the holder's still counts the lease as live. Past it the lease
// is extended first.
func (l DirLease) Serves(now time.Duration) bool { return now < l.until-l.period/4 }

// Live reports whether the lease has not yet lapsed.
func (l DirLease) Live(now time.Duration) bool { return now < l.until }

// Due reports whether less than half the period is left, when the holder
// extends the lease.
func (l DirLease) Due(now time.Duration) bool { return l.until-now < l.period/2 }

// ID returns the grant chain's fencing token.
func (l DirLease) ID() uint64 { return l.id }

// Period returns the length of the last grant.
func (l DirLease) Period() time.Duration { return l.period }

// unknownHolder stands in for a holder the manager cannot name: one its
// restart forgot, or one that gave the directory up uncleanly. No client is it, so every acquirer, the one that
// renounced included, takes the crashed-holder path: the grace, then a grant
// that recovers the journal first.
const unknownHolder rpc.Addr = "?unknown"

// verdict says what a decision did to the table: the manager counts
// extensions and persists changes before it answers.
type verdict uint8

const (
	kept     verdict = iota // nothing a snapshot holds changed
	extended                // the holder's chain went on in place
	changed                 // a chain began or ended
)

// grants is the manager's side of the directory lease: FCFS grants,
// extension in place, memory of the previous leader (SameLeader), the grace
// and NeedRecovery after an unclean end (paper §III-E) and the quiesce after
// a restart. A record's Expiry is an instant on this table's clock.
type grants struct {
	period time.Duration
	dirs   map[types.Ino]*DirGrant
	nextID uint64 // the last fencing token issued
	// readyAt ends the quiesce of a restart that lost the table: nothing is
	// granted before it.
	readyAt time.Duration
	// restarted: this table may have lost chains, so a directory it does not
	// know is a crashed unknown holder's, whose lease ends at unknownExpiry
	// (the restart plus one period). Recovering an intact directory is a
	// cheap no-op, so the caution costs little.
	restarted     bool
	unknownExpiry time.Duration
}

func newGrants(period time.Duration) *grants {
	return &grants{period: period, dirs: make(map[types.Ino]*DirGrant)}
}

// restart makes t a table that lost every chain at now: it grants nothing
// for one period, so every forgotten holder's lease has ended (paper
// §III-E-2), and every directory's first grant then recovers.
func (t *grants) restart(now time.Duration) {
	t.readyAt = now + t.period
	t.restarted = true
	t.unknownExpiry = t.readyAt
}

// resume installs the chains of a persisted table at now. The snapshot holds
// no instant, because the dead process's clock had another zero: every lease
// ends one period from now. A live holder goes on through
// an ordinary extension; a dead one lapses into the crashed-holder grace.
// Chains that changed after the snapshot are the restart's residue.
func (t *grants) resume(snap *grants, now time.Duration) {
	for ino, d := range snap.dirs {
		d.Expiry = now + t.period
		t.dirs[ino] = d
	}
	t.nextID = snap.nextID
	t.restarted, t.unknownExpiry = true, now+t.period
}

// record returns dir's chain, making it on first sight: a crashed unknown
// holder's when t may have lost it, a free one otherwise.
func (t *grants) record(dir types.Ino) *DirGrant {
	if d := t.dirs[dir]; d != nil {
		return d
	}
	d := &DirGrant{Dir: dir, Clean: true}
	if t.restarted {
		d = &DirGrant{Dir: dir, Holder: unknownHolder, Expiry: t.unknownExpiry}
	}
	t.dirs[dir] = d
	return d
}

// acquire answers client's Acquire of dir at now.
func (t *grants) acquire(dir types.Ino, client rpc.Addr, now time.Duration) (AcquireResp, verdict) {
	if now < t.readyAt {
		return AcquireResp{Wait: true, Quiesce: true, RetryAfter: t.readyAt - now}, kept
	}
	d := t.record(dir)
	grace := d.Expiry + t.period // a lapsed holder's data leases have ended too
	switch {
	case d.Holder == "":
		// Free: never held, or released cleanly. A repeat leader nobody
		// came between keeps its metatable.
		return t.chain(d, client, now, d.PrevHolder == client, false)
	case d.Holder == client && (!d.Recovering || now < grace):
		// The holder's own chain goes on: an extension, a re-acquire after
		// an idle lapse (its table is authoritative, its data leases its
		// own), or the recoverer keeping its lease. Not persisted: a resume
		// counts every lease a period from its own start.
		d.Expiry = now + t.period
		resp := AcquireResp{Granted: true, LeaseID: d.LeaseID, Period: t.period, SameLeader: true}
		if d.Recovering {
			return resp, kept
		}
		return resp, extended
	case d.Recovering && now < grace:
		return AcquireResp{Wait: true, RetryAfter: t.period / 2}, kept
	case now < d.Expiry && d.Holder != unknownHolder:
		return AcquireResp{Redirect: true, Leader: d.Holder}, kept
	case now < grace:
		// A lapsed holder's grace, or a stand-in's lease and grace: nobody
		// to send the client to, so it waits for the recovering grant.
		return AcquireResp{Wait: true, RetryAfter: grace - now}, kept
	default:
		// The chain ended uncleanly (a silent lapse, an unclean release, a
		// recoverer that died) a grace ago: a new chain, which replays the
		// journal first. Replay is idempotent, so a half-finished earlier
		// recovery is harmless.
		return t.chain(d, client, now, false, true)
	}
}

// chain starts a new chain of d for client at now.
func (t *grants) chain(d *DirGrant, client rpc.Addr, now time.Duration, same, recovery bool) (AcquireResp, verdict) {
	t.nextID++
	d.Holder, d.LeaseID, d.Expiry, d.Clean, d.Recovering = client, t.nextID, now+t.period, false, recovery
	if recovery {
		d.RecoverID = t.nextID
	}
	return AcquireResp{Granted: true, LeaseID: d.LeaseID, Period: t.period, SameLeader: same, NeedRecovery: recovery}, changed
}

// release ends client's chain id of dir at now. A clean release frees the
// directory and remembers client for SameLeader. An unclean one (a failed
// flush, an aborted recovery, a rename still held) may leave journal records
// the store does not have: the lease lapses on the spot to a holder nobody
// is, so the next grant, whoever asks, comes after the grace and recovers.
func (t *grants) release(dir types.Ino, client rpc.Addr, id uint64, clean bool, now time.Duration) (ReleaseResp, verdict) {
	d := t.dirs[dir]
	if d == nil || d.Holder != client || d.LeaseID != id {
		return ReleaseResp{}, kept
	}
	d.Recovering, d.Clean = false, clean
	if clean {
		d.Holder, d.PrevHolder = "", client
	} else {
		d.Holder, d.PrevHolder, d.Expiry = unknownHolder, "", now
	}
	return ReleaseResp{OK: true}, changed
}

// recoveryDone renews the lease of the recoverer of dir's chain id, which
// finished its journal recovery at now (paper §III-E-1), and lets the other
// acquirers on to it.
func (t *grants) recoveryDone(dir types.Ino, client rpc.Addr, id uint64, now time.Duration) (RecoveryDoneResp, verdict) {
	d := t.dirs[dir]
	if d == nil || !d.Recovering || d.Holder != client || d.RecoverID != id {
		return RecoveryDoneResp{}, kept
	}
	d.Recovering, d.Expiry = false, now+t.period
	return RecoveryDoneResp{OK: true, Period: t.period, LeaseID: d.LeaseID}, changed
}
