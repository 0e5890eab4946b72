// Package obs is ArkFS's zero-dependency observability layer: a metrics
// registry (atomic counters, gauges, fixed-bucket latency histograms) plus
// lightweight per-operation trace spans (trace.go).
//
// Two properties shape the design:
//
//   - Nil is the no-op sink. A nil *Registry hands out nil *Counter /
//     *Gauge / *Histogram pointers whose methods are nil-safe no-ops, so
//     instrumented code never branches on "metrics enabled?" and the
//     disabled path costs one predictable nil check per event.
//   - Determinism. All timing flows through a caller-supplied clock (the
//     sim.Env virtual clock in benchmarks and chaos runs), histogram buckets
//     are fixed, and Snapshot/Fingerprint render in sorted key order — two
//     same-seed virtual-time runs produce byte-identical fingerprints.
package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe: a nil *Counter is the disabled (no-op) sink.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (queue depth, buffer occupancy).
// All methods are nil-safe.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed latency bucket layout: powers of two from 1µs to
// ~34s plus an overflow bucket. Fixed bounds keep snapshots deterministic
// and mergeable across clients.
const histBuckets = 26

// bucketBound returns the inclusive upper bound of bucket i in nanoseconds.
func bucketBound(i int) int64 { return int64(time.Microsecond) << uint(i) }

// bucketFor returns the index of the bucket covering d.
func bucketFor(d time.Duration) int {
	n := int64(d)
	for i := 0; i < histBuckets; i++ {
		if n <= bucketBound(i) {
			return i
		}
	}
	return histBuckets // overflow
}

// Histogram is a fixed-bucket latency histogram with lock-free observation.
// All methods are nil-safe. Each bucket retains the most recent trace ID
// observed into it (the SLO exemplar): when a quantile regresses, the bucket
// names a concrete trace to pull from /traces. Exemplars are last-writer-wins
// and deliberately excluded from Fingerprint — which trace lands last depends
// on goroutine interleaving even under virtual time.
type Histogram struct {
	counts    [histBuckets + 1]atomic.Int64
	exemplars [histBuckets + 1]atomic.Uint64 // most recent TraceID per bucket
	count     atomic.Int64
	sum       atomic.Int64 // nanoseconds
	max       atomic.Int64 // nanoseconds, high-water mark
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) { h.ObserveTrace(d, 0) }

// ObserveTrace records one latency sample and, when trace is non-zero,
// retains it as the covering bucket's exemplar.
func (h *Histogram) ObserveTrace(d time.Duration, trace TraceID) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	b := bucketFor(d)
	h.counts[b].Add(1)
	if trace != 0 {
		h.exemplars[b].Store(uint64(trace))
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples (0 for a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// quantile returns the upper bound (ns) of the bucket holding the q-th
// sample. The estimate is conservative (rounds up to a bucket edge) and,
// because bounds are fixed, deterministic for a given sample multiset.
func (h *Histogram) quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i := 0; i <= histBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i == histBuckets {
				return h.max.Load()
			}
			return bucketBound(i)
		}
	}
	return h.max.Load()
}

// HistSnapshot is the rendered state of one histogram. Quantiles are bucket
// upper bounds in nanoseconds. Exemplars maps a populated bucket's upper
// bound (rendered as a duration) to the most recent trace ID observed into
// it; it is omitted when no exemplars were recorded.
type HistSnapshot struct {
	Count     int64             `json:"count"`
	SumNanos  int64             `json:"sum_ns"`
	MaxNanos  int64             `json:"max_ns"`
	P50       int64             `json:"p50_ns"`
	P95       int64             `json:"p95_ns"`
	P99       int64             `json:"p99_ns"`
	Exemplars map[string]string `json:"exemplars,omitempty"`
}

// MeanNanos returns the arithmetic mean sample in nanoseconds.
func (s HistSnapshot) MeanNanos() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumNanos / s.Count
}

// snapshot renders the histogram's current state, including any bucket
// exemplars.
func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:    h.count.Load(),
		SumNanos: h.sum.Load(),
		MaxNanos: h.max.Load(),
		P50:      h.quantile(0.50),
		P95:      h.quantile(0.95),
		P99:      h.quantile(0.99),
	}
	for i := range h.exemplars {
		if tr := h.exemplars[i].Load(); tr != 0 {
			if s.Exemplars == nil {
				s.Exemplars = make(map[string]string)
			}
			bound := "+inf"
			if i < histBuckets {
				bound = time.Duration(bucketBound(i)).String()
			}
			s.Exemplars[bound] = TraceID(tr).String()
		}
	}
	return s
}

// Registry names and owns a process's metrics. The zero value is not usable;
// create one with NewRegistry. A nil *Registry is the disabled sink: every
// getter returns nil, which in turn no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string][]func() int64 // external counters folded at snapshot
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string][]func() int64),
	}
}

// Counter returns (creating on first use) the named counter, or nil when the
// registry itself is nil. Components hold the returned pointer; the hot path
// never touches the registry map again.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge, or nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named latency histogram, or
// nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Func registers an external counter: fn is read at snapshot time and its
// value appears among the counters. Components with pre-existing atomic
// counters (cache.Stats, objstore.RetryStats, the FaultStore) fold in this
// way instead of double-counting on the hot path. Registering the same name
// repeatedly sums all registered funcs — each client in a deployment folds
// its own per-client stats into the shared cluster-wide metric.
func (r *Registry) Func(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.funcs[name] = append(r.funcs[name], fn)
	r.mu.Unlock()
}

// Snapshot is a point-in-time rendering of a registry: plain maps, so it
// marshals to deterministic JSON (encoding/json sorts map keys).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot captures the registry's current state. A nil registry yields an
// empty (but non-nil-mapped) snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, fns := range r.funcs {
		var sum int64
		for _, fn := range fns {
			sum += fn()
		}
		s.Counters[name] = sum
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Fingerprint renders the snapshot's schedule-invariant portion — counters,
// gauges, and histogram sample counts — as a canonical sorted text block.
// Latency sums/quantiles are deliberately excluded: the fingerprint asserts
// the operation mix (how many ops took each path), which a seeded
// virtual-time run must reproduce exactly.
func (s Snapshot) Fingerprint() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "c %s %d\n", k, s.Counters[k])
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "g %s %d\n", k, s.Gauges[k])
	}
	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "h %s %d\n", k, s.Histograms[k].Count)
	}
	return b.String()
}

// JSON renders the snapshot as indented, deterministic JSON.
func (s Snapshot) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil { // maps of scalars cannot fail to marshal
		return []byte("{}")
	}
	return out
}

// Table renders the snapshot as a human-readable table: counters and gauges
// first, then histograms with count/mean/p50/p95/p99.
func (s Snapshot) Table() string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters)+len(s.Gauges))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintf(&b, "%-44s %12s\n", "metric", "value")
		for _, k := range keys {
			v, ok := s.Counters[k]
			if !ok {
				v = s.Gauges[k]
			}
			fmt.Fprintf(&b, "%-44s %12d\n", k, v)
		}
	}
	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > 0 {
		fmt.Fprintf(&b, "%-44s %10s %12s %12s %12s %12s\n",
			"latency", "count", "mean", "p50", "p95", "p99")
		for _, k := range keys {
			h := s.Histograms[k]
			fmt.Fprintf(&b, "%-44s %10d %12v %12v %12v %12v\n", k, h.Count,
				time.Duration(h.MeanNanos()), time.Duration(h.P50),
				time.Duration(h.P95), time.Duration(h.P99))
		}
	}
	return b.String()
}
