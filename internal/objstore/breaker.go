package objstore

import (
	"fmt"
	"sync/atomic"
	"time"

	"arkfs/internal/qos"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// BreakerStats counts circuit-breaker activity: trips (transitions to open),
// fast-fails (requests refused while open or during a probe), and probes
// (half-open trial requests).
type BreakerStats struct {
	Tripped   atomic.Int64
	FastFails atomic.Int64
	Probes    atomic.Int64
}

// BreakerStore wraps a Store with a qos circuit breaker: transient backend
// failures trip it open, open fast-fails every round-trip with a typed
// EAGAIN carrying the time-to-probe, and a seeded half-open probe schedule
// decides recovery. Where it sits among the wrappers, and why, is DESIGN.md
// §7.3.
type BreakerStore struct {
	Verbs
	inner Store
	env   sim.Env
	br    *qos.Breaker
	stats BreakerStats
}

// NewBreakerStore wraps inner with a breaker under cfg (zero fields take the
// qos defaults).
func NewBreakerStore(env sim.Env, inner Store, cfg qos.BreakerConfig) *BreakerStore {
	b := &BreakerStore{inner: inner, env: env, br: qos.NewBreaker(cfg)}
	b.Verbs = b.do
	return b
}

// BreakerStats returns the live counters.
func (b *BreakerStore) BreakerStats() *BreakerStats { return &b.stats }

// State returns the breaker's current state.
func (b *BreakerStore) State() qos.BreakerState { return b.br.State() }

// now maps the environment clock onto the wall-clock origin the breaker
// expects; only differences matter, so the origin is arbitrary.
func (b *BreakerStore) now() time.Time { return time.Unix(0, int64(b.env.Now())) }

// do gates one round-trip through the breaker and feeds the outcome back.
// Semantic errors (ErrNotExist and friends) are successes for breaker
// purposes: the backend answered. Only transient, Retryable-class failures
// count toward tripping.
func (b *BreakerStore) do(op Op) (Result, error) {
	wasHalfOpen := b.br.State() == qos.BreakerOpen || b.br.State() == qos.BreakerHalfOpen
	ok, after := b.br.Allow(b.now())
	if !ok {
		b.stats.FastFails.Add(1)
		return Result{}, fmt.Errorf("objstore: %s %q: circuit open: %w", op.Verb, op.Key,
			types.AgainAfter(after, "breaker"))
	}
	if wasHalfOpen {
		b.stats.Probes.Add(1)
	}
	r, err := Do(b.inner, op)
	if err != nil && Retryable(err) {
		before := b.br.State()
		b.br.OnFailure(b.now())
		if before != qos.BreakerOpen && b.br.State() == qos.BreakerOpen {
			b.stats.Tripped.Add(1)
		}
		return r, err
	}
	b.br.OnSuccess()
	return r, err
}
