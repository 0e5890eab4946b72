// Package qos is ArkFS's overload protection: per-tenant token-bucket
// admission control. A leader charges every forwarded operation to its
// caller's tenant and refuses one past the tenant's rate with a typed
// retry-after hint (types.AgainAfter), which the caller honours before it
// retries; the object-store gateway admits HTTP requests the same way.
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

// Limits parameterizes one tenant's admission rate.
type Limits struct {
	Rate  float64 // sustained operations per second
	Burst float64 // bucket depth (instantaneous allowance)
}

// Limiter is per-tenant token-bucket admission control. Unknown tenants get
// the default limits; hostile or premium tenants can be pinned with
// SetTenant. All methods are nil-safe: a nil *Limiter admits everything.
type Limiter struct {
	mu      sync.Mutex
	def     Limits
	perT    map[string]Limits
	buckets map[string]*TokenBucket
}

// NewLimiter builds a limiter whose unknown-tenant default is def. A
// non-positive default rate disables limiting for tenants without explicit
// limits (they are always admitted).
func NewLimiter(def Limits) *Limiter {
	return &Limiter{
		def:     def,
		perT:    make(map[string]Limits),
		buckets: make(map[string]*TokenBucket),
	}
}

// SetTenant pins explicit limits for one tenant, replacing any existing
// bucket so the new limits take effect immediately.
func (l *Limiter) SetTenant(tenant string, lim Limits) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.perT[tenant] = lim
	delete(l.buckets, tenant)
}

// Admit charges one operation to tenant's bucket. Refusals carry the
// retry-after hint. Tenants whose effective rate is non-positive (and the
// empty tenant, which cannot be attributed) are always admitted.
func (l *Limiter) Admit(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l == nil || tenant == "" {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lim, pinned := l.perT[tenant]
	if !pinned {
		lim = l.def
	}
	if lim.Rate <= 0 {
		return true, 0
	}
	b := l.buckets[tenant]
	if b == nil {
		b = NewTokenBucket(lim.Rate, lim.Burst)
		l.buckets[tenant] = b
	}
	return b.Take(now)
}
