package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/types"
)

// Route says which path a metadata operation took.
type Route string

const (
	RouteLocal  Route = "local"  // served by this client as directory leader
	RouteRemote Route = "remote" // forwarded to the leader over RPC
)

// TraceID identifies one end-to-end operation across every process it
// touches. SpanID identifies one timed segment within a trace. Both are
// minted from a seeded splitmix64 stream — never from entropy or the wall
// clock — so a seeded virtual-time run reproduces the same IDs exactly and
// traces can be folded into the chaos fingerprint.
type (
	TraceID uint64
	SpanID  uint64
)

// String renders the ID in the fixed-width hex form used by /traces and the
// slow-op log.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// String renders the ID in fixed-width hex.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// SpanContext is the wire-portable identity of a span: what crosses the RPC
// envelope so the callee can parent its own spans under the caller's trace.
// The zero value means "no active trace".
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a live trace.
func (sc SpanContext) Valid() bool { return sc.Trace != 0 }

// Span records one operation. Spans are value types copied into the tracer's
// ring on End; mutate them only between Start and End, on the owning
// goroutine.
type Span struct {
	Trace   TraceID       // trace this span belongs to
	ID      SpanID        // this span's identity
	Parent  SpanID        // parent span, 0 for a root
	Proc    string        // process label of the tracer that minted it
	Op      string        // e.g. "create", "stat", "rename"
	Path    string        // primary path argument
	Dir     types.Ino     // directory the op resolved to (nil if unresolved)
	Route   Route         // local vs remote, set once routed
	Tenant  string        // tenant the op is attributed to, "" if unknown
	Retries int           // ESTALE/lease retries consumed
	Start   time.Duration // environment-clock time at Start
	Wait    time.Duration // queue wait before service began (enqueue→start)
	Dur     time.Duration // set at End
	Err     string        // errno string, "" on success

	tr *Tracer
}

// Context returns the span's wire identity. Nil-safe: a nil span yields the
// zero (invalid) context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.Trace, Span: s.ID}
}

// SetRoute tags the span with the route taken. Nil-safe.
func (s *Span) SetRoute(r Route) {
	if s != nil {
		s.Route = r
	}
}

// SetDir tags the span with the resolved directory inode. Nil-safe.
func (s *Span) SetDir(ino types.Ino) {
	if s != nil {
		s.Dir = ino
	}
}

// SetTenant attributes the span to a tenant. Nil-safe.
func (s *Span) SetTenant(tenant string) {
	if s != nil {
		s.Tenant = tenant
	}
}

// SetWait records how long the request sat queued before service began
// (the enqueue→start phase; Dur covers enqueue→done). Nil-safe.
func (s *Span) SetWait(d time.Duration) {
	if s != nil {
		s.Wait = d
	}
}

// AddRetry counts one retry of the underlying operation. Retries stay inside
// the span — the trace ID is minted once per logical operation, so a faulty
// network shows up as a high retry count on one trace, not as many traces.
// Nil-safe.
func (s *Span) AddRetry() {
	if s != nil {
		s.Retries++
	}
}

// End closes the span, stamping duration and outcome, and commits it to the
// tracer's ring. Nil-safe; calling End on a nil span is a no-op.
func (s *Span) End(err error) {
	if s == nil || s.tr == nil {
		return
	}
	s.Dur = s.tr.now() - s.Start
	if err != nil {
		s.Err = types.Errno(err)
	}
	s.tr.commit(*s)
}

// String renders the span as one log-friendly line.
func (s Span) String() string {
	route := s.Route
	if route == "" {
		route = "?"
	}
	errs := s.Err
	if errs == "" {
		errs = "ok"
	}
	var b strings.Builder
	if s.Trace != 0 {
		fmt.Fprintf(&b, "trace=%s span=%s ", s.Trace, s.ID)
		if s.Parent != 0 {
			fmt.Fprintf(&b, "parent=%s ", s.Parent)
		}
	}
	if s.Proc != "" {
		fmt.Fprintf(&b, "proc=%s ", s.Proc)
	}
	if s.Tenant != "" {
		fmt.Fprintf(&b, "tenant=%s ", s.Tenant)
	}
	fmt.Fprintf(&b, "%s %s dir=%s route=%s retries=%d dur=%v", s.Op, s.Path,
		s.Dir.Short(), route, s.Retries, s.Dur)
	if s.Wait > 0 {
		fmt.Fprintf(&b, " wait=%v", s.Wait)
	}
	fmt.Fprintf(&b, " %s", errs)
	return b.String()
}

// Tracer is a fixed-capacity ring buffer of completed spans. It is the crash
// forensics channel: cheap enough to leave on, bounded so a hung run cannot
// grow it, and dumpable by the chaos harness when a scenario fails. A nil
// *Tracer is the disabled sink.
//
// IDs are deterministic: each tracer mints from mix64(seed, ordinal), where
// the ordinal is a per-tracer atomic counter. Give every process a distinct
// seed (derived from the deployment seed) and a run replays with identical
// IDs; only cross-goroutine interleaving of the ordinal varies, which is why
// the chaos fingerprint folds span *totals*, not IDs.
type Tracer struct {
	now  func() time.Duration // injected clock; sim.Env.Now under virtual time
	proc string               // process label stamped on every span
	seed uint64               // ID-stream seed
	ord  atomic.Uint64        // per-tracer mint counter

	mu       sync.Mutex
	ring     []Span
	next     int
	wrap     bool
	total    int64
	onCommit func(Span)
}

// NewTracer creates a tracer holding the most recent capacity spans, stamping
// them with the supplied clock. The clock must be the same time source the
// rest of the deployment runs on (sim.Env.Now) so spans order correctly
// under virtual time; nil falls back to wall-clock nanoseconds since the
// Unix epoch.
func NewTracer(capacity int, now func() time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	if now == nil {
		now = func() time.Duration { return time.Duration(time.Now().UnixNano()) }
	}
	return &Tracer{now: now, ring: make([]Span, capacity)}
}

// SetProc labels every span this tracer mints with the process name (the
// client ID, lease-manager address, ...). Nil-safe; call before tracing.
func (t *Tracer) SetProc(name string) {
	if t != nil {
		t.proc = name
	}
}

// SetSeed fixes the ID-stream seed. Derive it from the deployment seed so a
// replayed run mints identical IDs; the default seed is 0, which still mints
// valid (deterministic) IDs. Nil-safe; call before tracing.
func (t *Tracer) SetSeed(seed uint64) {
	if t != nil {
		t.seed = seed
	}
}

// OnCommit installs a hook called with every completed span after it lands
// in the ring. The expose package uses it for the slow-op log. The hook runs
// outside the ring lock on the committing goroutine; keep it cheap. Nil-safe.
func (t *Tracer) OnCommit(fn func(Span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onCommit = fn
	t.mu.Unlock()
}

// mix64 is the splitmix64 output mix: a bijection on uint64, so distinct
// (seed, ordinal) inputs yield distinct IDs with good bit diffusion.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextID mints the next ID in this tracer's seeded stream. Never zero (zero
// means "absent" in SpanContext).
func (t *Tracer) nextID() uint64 {
	id := mix64(t.seed ^ (t.ord.Add(1) * 0x9e3779b97f4a7c15))
	if id == 0 {
		id = 1
	}
	return id
}

// StartRoot opens a root span: a fresh trace whose TraceID doubles as the
// root's SpanID. Returns nil (a valid no-op span) when the tracer is nil.
func (t *Tracer) StartRoot(op, path string) *Span {
	if t == nil {
		return nil
	}
	id := t.nextID()
	return &Span{
		Trace: TraceID(id), ID: SpanID(id), Proc: t.proc,
		Op: op, Path: path, Start: t.now(), tr: t,
	}
}

// StartChild opens a span under parent, inheriting its trace. A zero parent
// degrades to a root span, so callers need not branch on "was there an
// incoming trace?". Returns nil when the tracer is nil.
func (t *Tracer) StartChild(parent SpanContext, op, path string) *Span {
	if t == nil {
		return nil
	}
	if !parent.Valid() {
		return t.StartRoot(op, path)
	}
	return &Span{
		Trace: parent.Trace, ID: SpanID(t.nextID()), Parent: parent.Span,
		Proc: t.proc, Op: op, Path: path, Start: t.now(), tr: t,
	}
}

// Start opens a root span for op on path. Kept as the short name for the
// common case; see StartRoot/StartChild for explicit trace control.
func (t *Tracer) Start(op, path string) *Span { return t.StartRoot(op, path) }

func (t *Tracer) commit(s Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next, t.wrap = 0, true
	}
	t.total++
	hook := t.onCommit
	t.mu.Unlock()
	if hook != nil {
		hook(s)
	}
}

// Total returns the number of spans ever committed (0 for nil).
func (t *Tracer) Total() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns the retained spans, oldest first. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	if t.wrap {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	return out
}

// Filter returns the retained spans matching pred, oldest first. Nil-safe.
// The predicate runs on copies outside the ring lock.
func (t *Tracer) Filter(pred func(Span) bool) []Span {
	spans := t.Spans()
	if pred == nil {
		return spans
	}
	var out []Span
	for _, s := range spans {
		if pred(s) {
			out = append(out, s)
		}
	}
	return out
}

// Dump renders up to limit retained spans as a text block, newest last, for
// attaching to a failed chaos report. limit <= 0 dumps everything retained.
func (t *Tracer) Dump(limit int) string {
	spans := t.Spans()
	if limit > 0 && len(spans) > limit {
		spans = spans[len(spans)-limit:]
	}
	if len(spans) == 0 {
		return ""
	}
	var b strings.Builder
	for _, s := range spans {
		b.WriteString(s.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// spanKey carries the active local span in a context. What crosses the wire
// (trace identity, tenant, queue wait) is the rpc envelope's (rpc.Meta).
type spanKey struct{}

// WithSpan returns ctx carrying span. A nil span is carried as-is; SpanFrom
// will return nil and all span methods no-op.
func WithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFrom extracts the active span from ctx, or nil. Nil-ctx-safe.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
