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

// TestLimiterPerCaller: callers get independent buckets, a non-positive
// rate never limits, and the empty caller (plus nil limiter) always admits.
func TestLimiterPerCaller(t *testing.T) {
	l := NewLimiter(Limits{Rate: 100, Burst: 1})
	now := at(0)
	if ok, _ := l.Admit("a", now); !ok {
		t.Fatal("caller a's burst token refused")
	}
	if ok, _ := l.Admit("a", now); ok {
		t.Fatal("caller a over burst admitted")
	}
	if ok, _ := l.Admit("b", now); !ok {
		t.Fatal("caller b throttled by caller a's bucket")
	}
	open := NewLimiter(Limits{})
	for i := 0; i < 100; i++ {
		if ok, _ := open.Admit("a", now); !ok {
			t.Fatal("zero-rate limiter must never limit")
		}
		if ok, _ := l.Admit("", now); !ok {
			t.Fatal("empty caller must always admit")
		}
	}
	var nilL *Limiter
	if ok, _ := nilL.Admit("a", now); !ok {
		t.Fatal("nil limiter must admit")
	}
}
