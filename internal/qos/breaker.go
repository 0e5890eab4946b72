package qos

import (
	"math/rand"
	"sync"
	"time"
)

// BreakerState is one of the three classic circuit-breaker states.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fast-fails everything until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe; its outcome decides the
	// next state.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig parameterizes a Breaker. The zero value is filled with the
// defaults noted on each field.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker
	// (default 5).
	Threshold int
	// Cooldown is the initial open interval before the half-open probe
	// (default 100ms). Re-tripping from half-open doubles it, capped at
	// maxCooldown.
	Cooldown time.Duration
	// Seed feeds the deterministic probe jitter: each open interval is
	// stretched by up to 25% from a seeded stream, so a fleet of breakers
	// tripped by one outage does not probe in lockstep, yet a same-seed run
	// replays the exact probe schedule.
	Seed int64
}

func (c *BreakerConfig) fill() {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 100 * time.Millisecond
	}
}

// maxCooldown caps a breaker's doubling open interval.
const maxCooldown = 5 * time.Second

// Breaker is a deterministic closed/open/half-open circuit breaker. All
// timing flows through caller-supplied clock readings; all jitter comes from
// the seeded stream in BreakerConfig. Nil-safe: a nil *Breaker always allows
// and never trips.
type Breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	rng      *rand.Rand
	state    BreakerState
	fails    int           // consecutive failures while closed
	until    time.Time     // open until (probe time)
	cooldown time.Duration // current open interval (doubles on re-trip)
	probing  bool          // a half-open probe is in flight
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.fill()
	return &Breaker{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		cooldown: cfg.Cooldown,
	}
}

// Allow reports whether a round-trip may proceed. While open it refuses with
// the time remaining until the probe slot; in half-open it admits exactly one
// probe and refuses the rest with a one-cooldown hint.
func (b *Breaker) Allow(now time.Time) (ok bool, retryAfter time.Duration) {
	if b == nil {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, 0
	case BreakerOpen:
		if now.Before(b.until) {
			return false, b.until.Sub(now)
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true, 0
	case BreakerHalfOpen:
		if b.probing {
			return false, b.cooldown
		}
		b.probing = true
		return true, 0
	}
	return true, 0
}

// OnSuccess records a successful round-trip: closed resets the failure
// streak; a half-open probe success closes the breaker and resets the
// cooldown ladder.
func (b *Breaker) OnSuccess() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.state = BreakerClosed
		b.fails = 0
		b.probing = false
		b.cooldown = b.cfg.Cooldown
	}
}

// OnFailure records a failed round-trip. Closed trips to open at Threshold
// consecutive failures; a failed half-open probe re-opens with a doubled
// (capped) cooldown. The open interval carries deterministic seeded jitter.
func (b *Breaker) OnFailure(now time.Time) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.trip(now)
		}
	case BreakerHalfOpen:
		b.probing = false
		b.cooldown = min(2*b.cooldown, maxCooldown)
		b.trip(now)
	}
}

// trip moves to open until now + cooldown + jitter. Caller holds b.mu.
func (b *Breaker) trip(now time.Time) {
	b.state = BreakerOpen
	b.fails = 0
	jitter := time.Duration(b.rng.Int63n(int64(b.cooldown)/4 + 1))
	b.until = now.Add(b.cooldown + jitter)
}

// State returns the current state (closed for a nil breaker).
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
