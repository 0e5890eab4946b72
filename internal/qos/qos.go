// Package qos is ArkFS's overload-protection toolkit: per-tenant token-bucket
// admission control, shared per-operation retry budgets, a circuit breaker for
// object-store round-trips, and the brownout ladder that sheds expensive
// operations before cheap ones when the journal pipeline backs up.
//
// Two properties shape the design, mirroring the obs package:
//
//   - Determinism. Nothing in this package reads the wall clock or a global
//     RNG. Every decision is a pure function of caller-supplied timestamps
//     (the sim.Env virtual clock in benchmarks and chaos runs) and seeded
//     state, so a same-seed run replays every admit/shed decision exactly and
//     the qos.* counters fold into the deterministic metrics fingerprint.
//   - Nil is the no-op sink. A nil *Limiter, *Budget, or *Breaker admits
//     everything, so call sites never branch on "qos on?".
//
// The package is a leaf: it depends only on the standard library, so rpc,
// core, lease, and objstore can all import it without cycles.
package qos

import (
	"sync/atomic"
	"time"
)

// Budget is the shared per-operation retry budget: one pool of retry tokens
// (plus an optional deadline) that every retry loop under an operation —
// op-level retries, leader rediscovery, lease acquires — draws from, so
// nested loops cannot multiply attempts. The first attempt of anything is
// free; only retries spend. All methods are nil-safe: a nil *Budget always
// admits (the un-budgeted legacy behavior).
type Budget struct {
	remaining atomic.Int64
	deadline  atomic.Int64 // unix nanos; 0 = none
}

// NewBudget creates a budget with n retry tokens.
func NewBudget(n int) *Budget {
	b := &Budget{}
	b.Init(n)
	return b
}

// Init gives a budget not yet in use n retry tokens: it is NewBudget for a
// Budget held inside another value.
func (b *Budget) Init(n int) { b.remaining.Store(int64(n)) }

// SetDeadline caps the budget in time: TrySpend calls at or after t fail even
// if tokens remain.
func (b *Budget) SetDeadline(t time.Time) {
	if b == nil {
		return
	}
	b.deadline.Store(t.UnixNano())
}

// TrySpend consumes one retry token, reporting whether the retry may proceed.
// now is the caller's clock reading (virtual under sim).
func (b *Budget) TrySpend(now time.Time) bool {
	if b == nil {
		return true
	}
	if d := b.deadline.Load(); d != 0 && now.UnixNano() >= d {
		return false
	}
	for {
		r := b.remaining.Load()
		if r <= 0 {
			return false
		}
		if b.remaining.CompareAndSwap(r, r-1) {
			return true
		}
	}
}

// Remaining returns the retry tokens left (a nil budget reports a large
// sentinel, matching its always-admit behavior).
func (b *Budget) Remaining() int {
	if b == nil {
		return int(unbudgeted)
	}
	r := b.remaining.Load()
	if r < 0 {
		r = 0
	}
	return int(r)
}

// NoBudget is the wire value meaning "no budget attached": large enough
// that a derived server-side budget never binds before the client's own
// loops do.
const NoBudget = int64(1) << 30

const unbudgeted = NoBudget

// Wire renders a budget for the rpc envelope: the token count a remote
// server may in turn spend on its own nested retries (NoBudget when nil).
func Wire(b *Budget) int64 {
	if b == nil {
		return NoBudget
	}
	return int64(b.Remaining())
}

// BudgetFromWire rehydrates a wire token count into a server-side budget.
// The sentinel (or anything above it) means the caller carried no budget and
// rehydrates to nil, keeping the nil-admits-everything contract end to end.
// Non-positive counts also rehydrate to nil: zero is both gob's
// missing-field default and an already-exhausted budget, and in either case
// the calling side's own loops have stopped retrying.
func BudgetFromWire(n int64) *Budget {
	if n <= 0 || n >= unbudgeted {
		return nil
	}
	return NewBudget(int(n))
}
