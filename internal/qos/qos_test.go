package qos

import (
	"testing"
	"time"
)

func at(ms int64) time.Time { return time.Unix(0, ms*int64(time.Millisecond)) }

// TestTokenBucketDeterministic: two buckets fed the identical timestamp
// sequence make identical decisions with identical hints — the property that
// lets admission decisions fold into a replayable fingerprint.
func TestTokenBucketDeterministic(t *testing.T) {
	mk := func() []string {
		b := NewTokenBucket(100, 4)
		var out []string
		for i := int64(0); i < 200; i++ {
			ok, after := b.Take(at(i * 3))
			out = append(out, time.Duration(after).String()+map[bool]string{true: "+", false: "-"}[ok])
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestTokenBucketBurstAndRefill: the bucket starts full, drains to refusal,
// and refills at the configured rate up to the burst cap.
func TestTokenBucketBurstAndRefill(t *testing.T) {
	b := NewTokenBucket(100, 4) // 1 token / 10ms
	now := at(0)
	for i := 0; i < 4; i++ {
		if ok, _ := b.Take(now); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if ok, _ := b.Take(now); ok {
		t.Fatal("empty bucket granted a token")
	}
	if ok, _ := b.Take(at(10)); !ok { // one token accrued
		t.Fatal("refilled token refused")
	}
	// A long idle period caps at burst, not rate×elapsed.
	b2 := NewTokenBucket(100, 4)
	for i := 0; i < 4; i++ {
		b2.Take(at(0))
	}
	for i := 0; i < 4; i++ {
		if ok, _ := b2.Take(at(10_000)); !ok {
			t.Fatalf("token %d after idle refused", i)
		}
	}
	if ok, _ := b2.Take(at(10_000)); ok {
		t.Fatal("burst cap exceeded after idle")
	}
}

// TestTokenBucketSpreadsHints: a herd of same-window refusals is hinted at
// strictly increasing future slots, one token interval apart — not all at the
// instant the next token accrues. This is both the anti-stampede behavior and
// what keeps virtual-clock replays deterministic (no two hinted callers wake
// at the same instant).
func TestTokenBucketSpreadsHints(t *testing.T) {
	b := NewTokenBucket(100, 1) // 10ms per token
	b.Take(at(0))               // drain the single burst token
	var wakes []time.Time
	for i := 0; i < 8; i++ {
		now := at(int64(i)) // refusals 1ms apart
		ok, after := b.Take(now)
		if ok {
			t.Fatalf("refusal %d unexpectedly granted", i)
		}
		wakes = append(wakes, now.Add(after))
	}
	for i := 1; i < len(wakes); i++ {
		if !wakes[i].After(wakes[i-1]) {
			t.Fatalf("hint %d not strictly after hint %d: %v vs %v", i, i-1, wakes[i], wakes[i-1])
		}
		if got := wakes[i].Sub(wakes[i-1]); got < 9*time.Millisecond {
			t.Fatalf("hints %d/%d only %v apart; want ≥ one token interval", i-1, i, got)
		}
	}
	// The backlog drains at the admitted rate: each hinted caller retrying at
	// its slot gets exactly its token.
	for i, w := range wakes {
		if ok, after := b.Take(w); !ok {
			t.Fatalf("caller %d refused at its hinted slot (retry-after %v)", i, after)
		}
	}
}

// TestLimiterPerTenant: tenants get independent buckets, SetTenant overrides
// the default, and the empty tenant (plus nil limiter) always admits.
func TestLimiterPerTenant(t *testing.T) {
	l := NewLimiter(Limits{Rate: 100, Burst: 1})
	l.SetTenant("premium", Limits{Rate: 100, Burst: 8})
	l.SetTenant("open", Limits{}) // non-positive rate: never limited
	now := at(0)
	if ok, _ := l.Admit("a", now); !ok {
		t.Fatal("tenant a's burst token refused")
	}
	if ok, _ := l.Admit("a", now); ok {
		t.Fatal("tenant a over burst admitted")
	}
	if ok, _ := l.Admit("b", now); !ok {
		t.Fatal("tenant b throttled by tenant a's bucket")
	}
	for i := 0; i < 8; i++ {
		if ok, _ := l.Admit("premium", now); !ok {
			t.Fatalf("premium token %d refused", i)
		}
	}
	for i := 0; i < 100; i++ {
		if ok, _ := l.Admit("open", now); !ok {
			t.Fatal("zero-rate tenant must never be limited")
		}
		if ok, _ := l.Admit("", now); !ok {
			t.Fatal("empty tenant must always admit")
		}
	}
	var nilL *Limiter
	if ok, _ := nilL.Admit("a", now); !ok {
		t.Fatal("nil limiter must admit")
	}
}

// TestBudgetSpendAndDeadline: the shared pool admits exactly n retries, and a
// deadline stops spending even with tokens left.
func TestBudgetSpendAndDeadline(t *testing.T) {
	b := NewBudget(3)
	for i := 0; i < 3; i++ {
		if !b.TrySpend(at(0)) {
			t.Fatalf("retry %d refused with budget left", i)
		}
	}
	if b.TrySpend(at(0)) {
		t.Fatal("exhausted budget admitted a retry")
	}
	d := NewBudget(10)
	d.SetDeadline(at(5))
	if !d.TrySpend(at(4)) {
		t.Fatal("pre-deadline retry refused")
	}
	if d.TrySpend(at(5)) {
		t.Fatal("at-deadline retry admitted")
	}
	var nilB *Budget
	if !nilB.TrySpend(at(0)) {
		t.Fatal("nil budget must admit")
	}
}

// TestBudgetWireRoundTrip: the envelope encoding preserves "no budget" (the
// sentinel) and rehydrates real counts, with zero meaning exhausted→nil.
func TestBudgetWireRoundTrip(t *testing.T) {
	if Wire(nil) != NoBudget {
		t.Fatalf("Wire(nil) = %d, want sentinel", Wire(nil))
	}
	if BudgetFromWire(NoBudget) != nil || BudgetFromWire(0) != nil || BudgetFromWire(-1) != nil {
		t.Fatal("sentinel/zero/negative must rehydrate to nil")
	}
	b := NewBudget(5)
	b.TrySpend(at(0))
	r := BudgetFromWire(Wire(b))
	if r == nil || r.Remaining() != 4 {
		t.Fatalf("round-trip lost the count: %v", r.Remaining())
	}
}

// TestRetryBudgetRatio: retries are capped at burst + ratio×attempts.
func TestRetryBudgetRatio(t *testing.T) {
	b := NewRetryBudget(0.1, 2)
	if !b.Allow() || !b.Allow() {
		t.Fatal("burst retries refused")
	}
	if b.Allow() {
		t.Fatal("retry beyond burst admitted with zero attempts")
	}
	for i := 0; i < 10; i++ {
		b.OnAttempt()
	}
	if !b.Allow() { // 2 + 0.1*10 = 3
		t.Fatal("earned retry refused")
	}
	if b.Allow() {
		t.Fatal("retry beyond earned budget admitted")
	}
	att, ret := b.Stats()
	if att != 10 || ret != 3 {
		t.Fatalf("stats = (%d, %d), want (10, 3)", att, ret)
	}
}

// TestBreakerTransitions walks the classic state machine on a virtual clock:
// closed trips at the threshold, open refuses until the probe slot, a failed
// probe re-opens with doubled cooldown, a successful probe closes.
func TestBreakerTransitions(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 100 * time.Millisecond, Seed: 7})
	now := at(0)
	for i := 0; i < 3; i++ {
		if ok, _ := b.Allow(now); !ok {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.OnFailure(now)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, b.State())
	}
	ok, after := b.Allow(now)
	if ok || after <= 0 {
		t.Fatalf("open breaker allowed (after=%v)", after)
	}
	// The jittered cooldown is at most 1.25×; step past it to the probe slot.
	probeAt := now.Add(after)
	if ok, _ := b.Allow(probeAt); !ok {
		t.Fatal("probe slot refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state at probe = %v, want half-open", b.State())
	}
	if ok, _ := b.Allow(probeAt); ok {
		t.Fatal("second concurrent probe admitted")
	}
	b.OnFailure(probeAt) // failed probe: re-open, doubled cooldown
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	_, after2 := b.Allow(probeAt)
	if after2 < after { // doubled (modulo jitter ≥ 0) cooldown
		t.Fatalf("cooldown did not grow: %v then %v", after, after2)
	}
	probe2 := probeAt.Add(after2)
	if ok, _ := b.Allow(probe2); !ok {
		t.Fatal("second probe slot refused")
	}
	b.OnSuccess()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	var nilB *Breaker
	if ok, _ := nilB.Allow(now); !ok || nilB.State() != BreakerClosed {
		t.Fatal("nil breaker must allow")
	}
}

// TestBreakerSeededSchedule: same seed, same probe schedule — the breaker's
// jitter must not break fingerprint replay.
func TestBreakerSeededSchedule(t *testing.T) {
	sched := func(seed int64) []time.Duration {
		b := NewBreaker(BreakerConfig{Threshold: 1, Cooldown: 50 * time.Millisecond, Seed: seed})
		var out []time.Duration
		now := at(0)
		for i := 0; i < 6; i++ {
			b.OnFailure(now)
			_, after := b.Allow(now)
			out = append(out, after)
			now = now.Add(after)
			b.Allow(now) // take the probe (moves to half-open)
		}
		return out
	}
	a, b := sched(42), sched(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestBrownoutLadder: cheap ops never shed; expensive ops shed first; hints
// grow with overload depth; the ladder never mutates (zero value usable
// concurrently).
func TestBrownoutLadder(t *testing.T) {
	l := &BrownoutLadder{}
	if shed, _ := l.Sheds(100, CostCheap); shed {
		t.Fatal("cheap op shed")
	}
	if shed, _ := l.Sheds(0.5, CostExpensive); shed {
		t.Fatal("expensive op shed below threshold")
	}
	shedE, hintE := l.Sheds(1, CostExpensive)
	if !shedE || hintE <= 0 {
		t.Fatalf("expensive op not shed at pressure 1 (hint %v)", hintE)
	}
	if shed, _ := l.Sheds(2, CostNormal); shed {
		t.Fatal("normal op shed below its threshold")
	}
	if shed, _ := l.Sheds(3, CostNormal); !shed {
		t.Fatal("normal op not shed at pressure 3")
	}
	_, deep := l.Sheds(4, CostExpensive)
	if deep <= hintE {
		t.Fatalf("hint did not grow with depth: %v then %v", hintE, deep)
	}
	_, capped := l.Sheds(1000, CostExpensive)
	if capped != 8*10*time.Millisecond {
		t.Fatalf("depth cap: hint = %v, want 80ms", capped)
	}
	if *l != (BrownoutLadder{}) {
		t.Fatalf("Sheds mutated the ladder: %+v", *l)
	}
	var nilL *BrownoutLadder
	if shed, _ := nilL.Sheds(100, CostExpensive); shed {
		t.Fatal("nil ladder shed")
	}
}
