package objstore

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// RetryPolicy tunes the RetryStore: how many tries an operation gets and how
// long it waits after its first failure. All waits run through the
// environment clock, so virtual-time tests observe deterministic backoff.
type RetryPolicy struct {
	// MaxAttempts bounds the tries per operation (first try included).
	MaxAttempts int
	// InitialBackoff is the wait after the first failure; each further
	// failure doubles it, up to maxBackoff or InitialBackoff, whichever is
	// longer.
	InitialBackoff time.Duration
}

// DefaultRetryPolicy mirrors common object-store client defaults (e.g. the
// AWS SDK): a handful of attempts, millisecond-scale initial backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 6, InitialBackoff: 2 * time.Millisecond}
}

// The rest of the retry schedule. Each wait is stretched by up to ±25% from
// a seeded stream, which decorrelates clients that fail at the same instant
// yet replays exactly under virtual time; an operation gives up once its next
// wait would end retryDeadline or more after its first try.
const (
	maxBackoff    = 500 * time.Millisecond
	retryJitter   = 0.25
	retryDeadline = 10 * time.Second
)

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
// produce for timeouts) are transient. Typed EAGAIN pushback is
// deliberately NOT retryable here: hammering an endpoint that just asked for
// backoff is the retry storm this layer must not amplify — the bounded loops
// above honor the retry-after hint instead.
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
// attempt budget and retryDeadline. It is the robustness layer every ArkFS
// store round-trip (journal commit, cache write-back, metatable load,
// recovery scan) can be mounted on.
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
	r := &RetryStore{
		inner:  inner,
		env:    env,
		policy: p,
		rng:    rand.New(rand.NewSource(1)),
	}
	r.Verbs = r.do
	return r
}

// RetryStats returns the live retry counters.
func (r *RetryStore) RetryStats() *RetryStats { return &r.stats }

// backoff returns the jittered wait before re-attempt number retry (0-based).
func (r *RetryStore) backoff(retry int) time.Duration {
	limit := float64(max(maxBackoff, r.policy.InitialBackoff))
	d := float64(r.policy.InitialBackoff)
	for i := 0; i < retry && d < limit; i++ {
		d *= 2
	}
	d = min(d, limit)
	r.mu.Lock()
	d *= 1 + retryJitter*(2*r.rng.Float64()-1)
	r.mu.Unlock()
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
	deadline := r.env.Now() + retryDeadline
	for attempt := 1; ; attempt++ {
		res, err := Do(r.inner, op)
		if err == nil || !Retryable(err) {
			return res, err
		}
		if attempt < r.policy.MaxAttempts && !r.env.Stopped() {
			wait := r.backoff(attempt - 1)
			// Sleeping past the deadline only delays the failure report, so
			// the deadline check includes the upcoming backoff.
			if r.env.Now()+wait < deadline {
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
