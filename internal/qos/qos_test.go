package qos

import (
	"fmt"
	"math/rand"
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

// TestLimiterDropsIdleBuckets: over a seeded trace of 10^4 origins, a limiter
// that drops idle buckets answers every call exactly as one that keeps every
// bucket (decision and hint), and its map stays far below the number of
// origins it has seen. Sixteen of the origins take turns being hot: eight at a
// time, for about 50 ms, are refused and promised retry slots far ahead, then
// go quiet long enough to refill, and come back before those slots pass.
func TestLimiterDropsIdleBuckets(t *testing.T) {
	lim := Limits{Rate: 100, Burst: 4}
	l := NewLimiter(lim)
	kept := make(map[string]*TokenBucket)
	rng := rand.New(rand.NewSource(1))
	now, most := at(0), 0
	for i := 0; i < 200_000; i++ {
		now = now.Add(time.Duration(rng.Intn(20)) * time.Microsecond)
		caller := fmt.Sprintf("c%d", rng.Intn(10_000))
		if i%4 == 0 { // about 3,000 calls/s each
			caller = fmt.Sprintf("hot%d", 8*(i/5_000%2)+rng.Intn(8))
		}
		b := kept[caller]
		if b == nil {
			b = NewTokenBucket(lim.Rate, lim.Burst)
			kept[caller] = b
		}
		wantOK, wantAfter := b.Take(now)
		ok, after := l.Admit(caller, now)
		if ok != wantOK || after != wantAfter {
			t.Fatalf("call %d (%s at %v): admit %v after %v, a limiter that keeps every bucket says %v after %v",
				i, caller, now.Sub(at(0)), ok, after, wantOK, wantAfter)
		}
		most = max(most, len(l.buckets))
	}
	if len(kept) < 9_900 {
		t.Fatalf("the trace reached only %d origins", len(kept))
	}
	// A bucket refills within 40 ms and a call comes every 10 µs on average,
	// so about 4,000 calls, and fewer origins, are not yet idle at a time.
	if most > 2*4_000+minSweep {
		t.Fatalf("the limiter held up to %d buckets for %d origins", most, len(kept))
	}
	t.Logf("%d origins, at most %d buckets held", len(kept), most)
}
