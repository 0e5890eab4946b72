package core

import "time"

// dirLease is this client's side of a directory lease (paper §III-B): the
// grant chain's fencing token and when the lease ends on this client's own
// clock. The manager grants a period counted from its answer; the holder
// counts it from its own send of the request, which came first, so the
// holder's lease ends first (DESIGN.md §5.9). The whole expiry rule lives in
// these four methods. It takes no env: callers pass env.Now() and hold c.mu.
type dirLease struct {
	id     uint64        // fencing token of the grant chain
	until  time.Duration // end of the lease: the request's send plus period
	period time.Duration // the granted length
}

// grant records a grant of period under id, requested at sent.
func (l *dirLease) grant(sent, period time.Duration, id uint64) {
	l.id, l.until, l.period = id, sent+period, period
}

// serves reports whether an operation may start on the lease now: a quarter
// of the period is kept in hand, so that nothing of unbounded length lies
// between this check and the lease's end. Past it the lease is extended
// first.
func (l dirLease) serves(now time.Duration) bool { return now < l.until-l.period/4 }

// live reports whether the lease has not yet lapsed.
func (l dirLease) live(now time.Duration) bool { return now < l.until }

// due reports whether less than half the period is left, when the
// leaseKeeper extends the lease.
func (l dirLease) due(now time.Duration) bool { return l.until-now < l.period/2 }
