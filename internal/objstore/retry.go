package objstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/qos"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// RetryPolicy tunes the RetryStore: exponential backoff with jitter and a
// per-operation attempt/deadline budget. All waits run through the
// environment clock, so virtual-time tests observe deterministic backoff.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per operation (first try included).
	MaxAttempts int
	// InitialBackoff is the wait after the first failure; each further
	// failure multiplies it by Multiplier up to MaxBackoff.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	Multiplier     float64
	// Jitter randomizes each wait by ±Jitter (0.25 = ±25%), decorrelating
	// clients that fail at the same instant.
	Jitter float64
	// AttemptBudget is the per-operation deadline across all attempts;
	// zero means attempts alone bound the operation.
	AttemptBudget time.Duration
	// Seed seeds the jitter RNG so virtual-time runs are reproducible.
	Seed int64
	// Budget, when non-nil, is a client-wide retry-rate budget shared by
	// every operation on this store: once retries-so-far reach its
	// burst + ratio × attempts ceiling, further retries are refused even if
	// the per-operation attempt budget has room. This is the store-layer
	// arm of the shared-budget rule — the Store API carries no context, so
	// the global rate budget stands in for the per-op token pool.
	Budget *qos.RetryBudget
}

// DefaultRetryPolicy mirrors common object-store client defaults (e.g. the
// AWS SDK): a handful of attempts, millisecond-scale initial backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    6,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     500 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.25,
		AttemptBudget:  10 * time.Second,
		Seed:           1,
	}
}

// RetryStats counts retries per verb plus operations that exhausted their
// budget. A retry is a re-issued attempt, so a Put that fails twice and then
// succeeds adds 2 to Put.
type RetryStats struct {
	Put, Get, GetRange, Delete, List, Head atomic.Int64
	// Exhausted counts operations returned to the caller as failed after
	// the full attempt/deadline budget.
	Exhausted atomic.Int64
}

// Retries returns the total re-issued attempts across all verbs.
func (s *RetryStats) Retries() int64 {
	return s.Put.Load() + s.Get.Load() + s.GetRange.Load() +
		s.Delete.Load() + s.List.Load() + s.Head.Load()
}

// Retryable classifies a store error: semantic errors the file-system layer
// interprets (missing object, bad argument, permission) are permanent, while
// ErrIO-class failures (and unknown backend errors, which real REST gateways
// produce for timeouts) are transient. Typed EAGAIN pushback (gateway 429,
// open circuit breaker) is deliberately NOT retryable here: hammering an
// endpoint that just asked for backoff is the retry storm this layer must not
// amplify — the budgeted loops above honor the retry-after hint instead.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, types.ErrNotExist), errors.Is(err, types.ErrExist),
		errors.Is(err, types.ErrInval), errors.Is(err, types.ErrAccess),
		errors.Is(err, types.ErrPerm), errors.Is(err, types.ErrNoSpace),
		errors.Is(err, types.ErrAgain):
		return false
	}
	return true
}

// RetryStore wraps any Store and re-issues operations that fail with a
// retryable error, with exponential backoff + jitter under the policy's
// attempt and deadline budget. It is the robustness layer every ArkFS store
// round-trip (journal commit, cache write-back, metatable load, recovery
// scan) can be mounted on.
type RetryStore struct {
	Verbs
	inner  Store
	env    sim.Env
	policy RetryPolicy

	mu    sync.Mutex
	rng   *rand.Rand
	stats RetryStats
}

// NewRetryStore wraps inner with the given policy; zero policy fields fall
// back to DefaultRetryPolicy values.
func NewRetryStore(env sim.Env, inner Store, p RetryPolicy) *RetryStore {
	def := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = def.MaxAttempts
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = def.InitialBackoff
	}
	if p.MaxBackoff < p.InitialBackoff {
		p.MaxBackoff = def.MaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = def.Multiplier
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = def.Jitter
	}
	if p.Seed == 0 {
		p.Seed = def.Seed
	}
	r := &RetryStore{
		inner:  inner,
		env:    env,
		policy: p,
		rng:    rand.New(rand.NewSource(p.Seed)),
	}
	r.Verbs = r.do
	return r
}

// RetryStats returns the live retry counters.
func (r *RetryStore) RetryStats() *RetryStats { return &r.stats }

// backoff returns the jittered wait before re-attempt number retry (0-based).
func (r *RetryStore) backoff(retry int) time.Duration {
	d := float64(r.policy.InitialBackoff)
	for i := 0; i < retry && d < float64(r.policy.MaxBackoff); i++ {
		d *= r.policy.Multiplier
	}
	if max := float64(r.policy.MaxBackoff); d > max {
		d = max
	}
	if j := r.policy.Jitter; j > 0 {
		r.mu.Lock()
		d *= 1 + j*(2*r.rng.Float64()-1)
		r.mu.Unlock()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// of returns the verb's retry counter.
func (s *RetryStats) of(v Verb) *atomic.Int64 {
	return [numVerbs]*atomic.Int64{&s.Put, &s.Get, &s.GetRange, &s.Delete, &s.List, &s.Head}[v]
}

// do runs op under the retry budget, counting re-issues against its verb.
func (r *RetryStore) do(op Op) (Result, error) {
	r.policy.Budget.OnAttempt()
	deadline := time.Duration(-1)
	if r.policy.AttemptBudget > 0 {
		deadline = r.env.Now() + r.policy.AttemptBudget
	}
	for attempt := 1; ; attempt++ {
		res, err := Do(r.inner, op)
		if err == nil || !Retryable(err) {
			return res, err
		}
		if attempt < r.policy.MaxAttempts && !r.env.Stopped() {
			wait := r.backoff(attempt - 1)
			// Sleeping past the deadline only delays the failure report, so
			// the budget check includes the upcoming backoff. The global
			// retry-rate budget is consulted last: when the fleet-wide retry
			// ratio is already at its ceiling, adding more retry load would
			// deepen the overload that caused the failures.
			if (deadline < 0 || r.env.Now()+wait < deadline) && r.policy.Budget.Allow() {
				r.stats.of(op.Verb).Add(1)
				r.env.Sleep(wait)
				continue
			}
		}
		r.stats.Exhausted.Add(1)
		return res, fmt.Errorf("objstore: %s %q gave up after %d attempt(s): %w",
			op.Verb, op.Key, attempt, err)
	}
}
