// Package qos is ArkFS's overload protection: token-bucket admission control
// per caller. A leader charges every forwarded operation to its origin, the
// client the op started at, and refuses one past that client's rate with a
// typed retry-after hint (types.AgainAfter), which the caller honours before
// it retries.
//
// Nothing in this package reads the wall clock or a global RNG: every
// decision is a pure function of caller-supplied timestamps (the sim.Env
// virtual clock in benchmarks and chaos runs), so a same-seed run replays
// every admit/refuse decision exactly. A nil *Limiter admits everything, so
// call sites never branch on "qos on?". The package depends only on the
// standard library.
package qos

import (
	"sync"
	"time"
)

// TokenBucket is a deterministic token bucket: tokens accrue at Rate per
// second up to Burst, and every refill is computed from the caller-supplied
// clock reading, so two same-seed virtual-time runs make identical decisions.
type TokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	// hint is the latest retry instant already promised to a refused
	// caller. Each refusal is hinted at least one token interval past it,
	// so outstanding hints are pairwise distinct and a backlog of refused
	// callers retries spread one token apart instead of stampeding the
	// instant one token accrues.
	hint time.Time
}

// NewTokenBucket builds a bucket that starts full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Take consumes one token if available. On refusal it returns a retry-after
// hint pointing at a future token slot no other refused caller was promised:
// if every refusal were hinted "next token at T", a whole herd would retry at
// exactly T, stampede, and all but one would be refused again (and, under a
// virtual clock, their same-instant race would make replays diverge).
// Reserving strictly increasing slots drains a backlog of refused callers at
// exactly the admitted rate, one retry per token.
func (b *TokenBucket) Take(now time.Time) (ok bool, retryAfter time.Duration) {
	if !b.last.IsZero() && now.After(b.last) {
		b.tokens += b.rate * now.Sub(b.last).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	if b.rate <= 0 {
		return false, time.Second // closed bucket: arbitrary positive hint
	}
	step := time.Duration(float64(time.Second) / b.rate)
	slot := now.Add(time.Duration((1 - b.tokens) / b.rate * float64(time.Second)))
	if earliest := b.hint.Add(step); earliest.After(slot) {
		slot = earliest
	}
	after := slot.Sub(now)
	if after < time.Millisecond {
		after = time.Millisecond
	}
	b.hint = now.Add(after) // the instant this caller was told to retry at
	return false, after
}

// Limits parameterizes one caller's admission rate.
type Limits struct {
	Rate  float64 // sustained operations per second
	Burst float64 // bucket depth (instantaneous allowance)
}

// idle reports whether b answers every Take from now on as a fresh bucket
// would: it has refilled to its burst, and its last hint lies at least one
// token step in the past, so no future hint is spaced from it.
func (b *TokenBucket) idle(now time.Time) bool {
	step := time.Duration(float64(time.Second) / b.rate)
	full := b.tokens+b.rate*now.Sub(b.last).Seconds() >= b.burst
	return full && !b.hint.Add(step).After(now)
}

// Limiter is token-bucket admission control with one bucket per caller, each
// at the same limits. It is nil-safe: a nil *Limiter admits everything.
type Limiter struct {
	mu      sync.Mutex
	lim     Limits
	buckets map[string]*TokenBucket
	// sweepAt is the number of buckets at which Admit next drops the idle
	// ones: twice what the last sweep kept, so each Admit pays O(1) on
	// average and the map stays within twice the callers not yet idle.
	sweepAt int
}

// minSweep is the fewest buckets a sweep waits for.
const minSweep = 64

// NewLimiter builds a limiter that gives every caller lim. A non-positive
// rate disables limiting (every call is admitted).
func NewLimiter(lim Limits) *Limiter {
	return &Limiter{lim: lim, buckets: make(map[string]*TokenBucket), sweepAt: minSweep}
}

// Admit charges one operation to caller's bucket. Refusals carry the
// retry-after hint. The empty caller, which names no one to charge, is
// always admitted.
func (l *Limiter) Admit(caller string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l == nil || caller == "" || l.lim.Rate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.buckets) >= l.sweepAt {
		// An idle bucket is indistinguishable from the fresh one its
		// caller's next Admit would make, so dropping it changes no answer.
		for k, b := range l.buckets {
			if b.idle(now) {
				delete(l.buckets, k)
			}
		}
		l.sweepAt = max(2*len(l.buckets), minSweep)
	}
	b := l.buckets[caller]
	if b == nil {
		b = NewTokenBucket(l.lim.Rate, l.lim.Burst)
		l.buckets[caller] = b
	}
	return b.Take(now)
}
