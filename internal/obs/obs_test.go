package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"arkfs/internal/types"
)

func TestNilSinksAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	c.Add(5)
	c.Inc()
	g.Set(9)
	g.Add(-2)
	h.Observe(time.Millisecond)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("nil sinks recorded values: %d %d %d", c.Value(), g.Value(), h.Count())
	}
	r.Func("y", func() int64 { return 1 })
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}

	var tr *Tracer
	sp := tr.Start("op", "/p")
	sp.SetRoute(RouteLocal)
	sp.SetDir(types.RootIno)
	sp.AddRetry()
	sp.End(nil)
	tr.SetProc("p")
	tr.SetSeed(1)
	tr.OnCommit(func(Span) {})
	if tr.Total() != 0 || tr.Spans() != nil || tr.Dump(0) != "" || tr.Filter(nil) != nil {
		t.Fatal("nil tracer recorded spans")
	}
	if sc := tr.StartChild(SpanContext{}, "op", "/p").Context(); sc.Valid() {
		t.Fatal("nil tracer minted a span context")
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("ops") != c {
		t.Fatal("same name returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	r.Func("ext", func() int64 { return 42 })
	s := r.Snapshot()
	if s.Counters["ops"] != 4 || s.Counters["ext"] != 42 || s.Gauges["depth"] != 4 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	// 90 samples at ~1µs, 10 at ~1ms: p50 in the 1µs bucket, p99 at 1ms.
	for i := 0; i < 90; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50 != int64(time.Microsecond) {
		t.Fatalf("p50 = %d, want %d", s.P50, int64(time.Microsecond))
	}
	// Quantiles are bucket upper bounds: 1ms lands in the (512µs, 1024µs]
	// bucket, so p99 reports 1024µs.
	if want := int64(1024 * time.Microsecond); s.P99 != want {
		t.Fatalf("p99 = %d, want %d", s.P99, want)
	}
	if s.MaxNanos != int64(time.Millisecond) {
		t.Fatalf("max = %d, want %d", s.MaxNanos, int64(time.Millisecond))
	}
	if got := s.MeanNanos(); got <= 0 {
		t.Fatalf("mean = %d, want > 0", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(10 * time.Minute) // beyond the last bounded bucket
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 1 || s.P99 != int64(10*time.Minute) {
		t.Fatalf("overflow sample: %+v", s)
	}
}

func TestSnapshotJSONAndFingerprintDeterministic(t *testing.T) {
	build := func() Snapshot {
		r := NewRegistry()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		r.Gauge("g").Set(3)
		r.Histogram("h").Observe(time.Microsecond)
		return r.Snapshot()
	}
	s1, s2 := build(), build()
	if string(s1.JSON()) != string(s2.JSON()) {
		t.Fatal("JSON not deterministic across identical registries")
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("fingerprint not deterministic")
	}
	var parsed Snapshot
	if err := json.Unmarshal(s1.JSON(), &parsed); err != nil {
		t.Fatalf("JSON does not parse: %v", err)
	}
	fp := s1.Fingerprint()
	for _, want := range []string{"c a 1\n", "c b 2\n", "g g 3\n", "h h 1\n"} {
		if !strings.Contains(fp, want) {
			t.Fatalf("fingerprint missing %q:\n%s", want, fp)
		}
	}
	if s1.Table() == "" {
		t.Fatal("empty table")
	}
}

func TestFingerprintExcludesLatency(t *testing.T) {
	r1, r2 := NewRegistry(), NewRegistry()
	r1.Histogram("h").Observe(time.Microsecond)
	r2.Histogram("h").Observe(time.Second) // same count, different latency
	if r1.Snapshot().Fingerprint() != r2.Snapshot().Fingerprint() {
		t.Fatal("fingerprint depends on latency values, not just counts")
	}
}

func TestTracerRing(t *testing.T) {
	var now time.Duration
	clock := func() time.Duration { return now }
	tr := NewTracer(3, clock)
	for i := 0; i < 5; i++ {
		sp := tr.Start("create", "/f")
		sp.SetRoute(RouteRemote)
		sp.SetDir(types.RootIno)
		sp.AddRetry()
		now += time.Millisecond
		sp.End(types.ErrExist)
	}
	if tr.Total() != 5 {
		t.Fatalf("total = %d, want 5", tr.Total())
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("retained %d spans, want 3", len(spans))
	}
	s := spans[0]
	if s.Op != "create" || s.Route != RouteRemote || s.Retries != 1 ||
		s.Err != "EEXIST" || s.Dur != time.Millisecond {
		t.Fatalf("span fields wrong: %+v", s)
	}
	dump := tr.Dump(0)
	if !strings.Contains(dump, "create /f") || !strings.Contains(dump, "EEXIST") {
		t.Fatalf("dump missing fields:\n%s", dump)
	}
	if got := strings.Count(tr.Dump(2), "\n"); got != 2 {
		t.Fatalf("Dump(2) rendered %d spans, want 2", got)
	}
}

// TestHistogramEmptyQuantiles: an empty histogram snapshots to all zeros
// rather than garbage bucket bounds.
func TestHistogramEmptyQuantiles(t *testing.T) {
	r := NewRegistry()
	r.Histogram("lat") // registered, never observed
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 0 || s.P50 != 0 || s.P95 != 0 || s.P99 != 0 || s.MaxNanos != 0 {
		t.Fatalf("empty histogram not all-zero: %+v", s)
	}
	if s.MeanNanos() != 0 {
		t.Fatalf("empty mean = %d, want 0", s.MeanNanos())
	}
}

// TestHistogramOverflowMixedQuantiles: with bounded and overflow samples
// mixed, low quantiles report bucket bounds and the top quantile reports the
// true max, never a nonsense bound from the overflow bucket.
func TestHistogramOverflowMixedQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(10 * time.Minute)
	s := r.Snapshot().Histograms["lat"]
	if s.P50 != int64(time.Microsecond) {
		t.Fatalf("p50 = %d, want %d", s.P50, int64(time.Microsecond))
	}
	if s.P99 != int64(time.Microsecond) {
		t.Fatalf("p99 = %d, want %d (rank 99 of 100)", s.P99, int64(time.Microsecond))
	}
	if s.MaxNanos != int64(10*time.Minute) {
		t.Fatalf("max = %d, want %d", s.MaxNanos, int64(10*time.Minute))
	}
}

// TestTraceIDsDeterministic: two tracers with the same seed mint identical
// ID sequences; different seeds diverge; IDs are never zero.
func TestTraceIDsDeterministic(t *testing.T) {
	mint := func(seed uint64) []SpanContext {
		tr := NewTracer(8, nil)
		tr.SetSeed(seed)
		var out []SpanContext
		for i := 0; i < 4; i++ {
			sp := tr.StartRoot("op", "/p")
			out = append(out, sp.Context())
			sp.End(nil)
		}
		return out
	}
	a, b, c := mint(7), mint(7), mint(8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] == c[i] {
			t.Fatalf("different seeds collided at %d: %v", i, a[i])
		}
		if !a[i].Valid() || a[i].Span == 0 {
			t.Fatalf("invalid minted context: %v", a[i])
		}
	}
}

// TestStartChildParentLinks: children inherit the trace and point at their
// parent; a zero parent context degrades to a fresh root.
func TestStartChildParentLinks(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.SetProc("proc-a")
	root := tr.StartRoot("create", "/d/f")
	if root.Trace == 0 || SpanID(root.Trace) != root.ID || root.Parent != 0 {
		t.Fatalf("bad root identity: %+v", root)
	}
	child := tr.StartChild(root.Context(), "serve.Create", "/d/f")
	if child.Trace != root.Trace {
		t.Fatalf("child trace %v != root trace %v", child.Trace, root.Trace)
	}
	if child.Parent != root.ID || child.ID == root.ID {
		t.Fatalf("bad child linkage: %+v", child)
	}
	if child.Proc != "proc-a" {
		t.Fatalf("proc not stamped: %q", child.Proc)
	}
	orphan := tr.StartChild(SpanContext{}, "op", "/x")
	if orphan.Parent != 0 || orphan.Trace == 0 {
		t.Fatalf("zero parent should mint a root: %+v", orphan)
	}
	child.End(nil)
	root.End(nil)
	orphan.End(nil)
}

// TestTracerFilter: Filter selects by predicate, oldest first.
func TestTracerFilter(t *testing.T) {
	tr := NewTracer(8, nil)
	for i := 0; i < 3; i++ {
		tr.Start("stat", "/a").End(nil)
	}
	tr.Start("create", "/b").End(types.ErrExist)
	errs := tr.Filter(func(s Span) bool { return s.Err != "" })
	if len(errs) != 1 || errs[0].Op != "create" {
		t.Fatalf("error filter: %+v", errs)
	}
	if got := len(tr.Filter(func(s Span) bool { return s.Op == "stat" })); got != 3 {
		t.Fatalf("op filter matched %d, want 3", got)
	}
	if got := len(tr.Filter(nil)); got != 4 {
		t.Fatalf("nil predicate matched %d, want all 4", got)
	}
}

// TestTracerOnCommit: the commit hook sees every completed span.
func TestTracerOnCommit(t *testing.T) {
	tr := NewTracer(4, nil)
	var mu sync.Mutex
	var got []string
	tr.OnCommit(func(s Span) {
		mu.Lock()
		got = append(got, s.Op)
		mu.Unlock()
	})
	tr.Start("a", "/").End(nil)
	tr.Start("b", "/").End(nil)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("hook saw %v", got)
	}
}

func TestSpanContextCarrier(t *testing.T) {
	tr := NewTracer(4, nil)
	sp := tr.Start("stat", "/x")
	ctx := WithSpan(context.Background(), sp)
	if got := SpanFrom(ctx); got != sp {
		t.Fatal("SpanFrom did not return the carried span")
	}
	if got := SpanFrom(context.Background()); got != nil {
		t.Fatal("SpanFrom on empty ctx should be nil")
	}
	sp.End(nil)
	if tr.Total() != 1 {
		t.Fatal("span did not commit")
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost updates: c=%d h=%d", c.Value(), h.Count())
	}
}
