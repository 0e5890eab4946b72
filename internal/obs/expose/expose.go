// Package expose serves a process's observability state over HTTP: Prometheus
// text-format metrics, the raw JSON snapshot, the trace ring with parent/child
// structure, a health probe, and net/http/pprof. Every arkfs binary mounts it
// behind an opt-in -debug-addr flag.
//
// The package only reads: it renders whatever registry and tracer rings it is
// given and never mutates them, so attaching it cannot perturb a seeded run's
// fingerprint.
package expose

import (
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"arkfs/internal/obs"
)

// Options configures the debug server.
type Options struct {
	// Reg is the metrics registry rendered by /metrics and /stats.json. Nil
	// renders empty snapshots.
	Reg *obs.Registry
	// Tracers are the span rings queried by /traces — one per in-process
	// participant (each arkfs client and lease manager owns a ring).
	Tracers []*obs.Tracer
}

// Server is a running debug endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Serve starts the debug server on addr (host:port; port 0 picks a free one).
func Serve(addr string, o Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("expose: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: Handler(o)}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// Handler builds the debug mux without binding a socket, for embedding and
// tests.
func Handler(o Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "arkfs debug endpoints:\n"+
			"  /metrics      Prometheus text exposition\n"+
			"  /stats.json   raw metrics snapshot\n"+
			"  /traces       span rings (?trace=<id>|op=<op>|err=1&limit=N)\n"+
			"  /healthz      health probe\n"+
			"  /debug/pprof  runtime profiles\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, PrometheusText(o.Reg.Snapshot()))
	})
	mux.HandleFunc("/stats.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(o.Reg.Snapshot().JSON())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		q := r.URL.Query()
		var f TraceFilter
		if tid := q.Get("trace"); tid != "" {
			id, err := strconv.ParseUint(strings.TrimPrefix(tid, "0x"), 16, 64)
			if err != nil {
				http.Error(w, "bad trace id: "+tid, http.StatusBadRequest)
				return
			}
			f.Trace = obs.TraceID(id)
		}
		f.Op = q.Get("op")
		f.ErrOnly = q.Get("err") == "1"
		f.Limit = 32
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n < 0 {
				http.Error(w, "bad limit: "+ls, http.StatusBadRequest)
				return
			}
			f.Limit = n
		}
		fmt.Fprint(w, RenderTraces(collect(o.Tracers), f))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func collect(tracers []*obs.Tracer) []obs.Span {
	var all []obs.Span
	for _, tr := range tracers {
		all = append(all, tr.Spans()...)
	}
	return all
}

// --- Prometheus text exposition ----------------------------------------------

// promName maps a dotted arkfs metric name to the Prometheus grammar:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promSeconds renders a nanosecond quantity as Prometheus-convention seconds.
func promSeconds(ns int64) string {
	return strconv.FormatFloat(float64(ns)/1e9, 'g', -1, 64)
}

// PrometheusText renders a snapshot in the Prometheus text exposition format
// (version 0.0.4). Counters and gauges keep their values verbatim; latency
// histograms render as summaries with quantile labels, _sum, and _count, in
// seconds per Prometheus convention. Output is sorted, hence deterministic.
func PrometheusText(s obs.Snapshot) string {
	var b strings.Builder
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := promName(k)
		fmt.Fprintf(&b, "# HELP %s arkfs counter %s\n# TYPE %s counter\n%s %d\n",
			n, k, n, n, s.Counters[k])
	}
	keys = keys[:0]
	for k := range s.Gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := promName(k)
		fmt.Fprintf(&b, "# HELP %s arkfs gauge %s\n# TYPE %s gauge\n%s %d\n",
			n, k, n, n, s.Gauges[k])
	}
	keys = keys[:0]
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := promName(k)
		h := s.Histograms[k]
		fmt.Fprintf(&b, "# HELP %s arkfs latency %s\n# TYPE %s summary\n", n, k, n)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", n, promSeconds(h.P50))
		fmt.Fprintf(&b, "%s{quantile=\"0.95\"} %s\n", n, promSeconds(h.P95))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", n, promSeconds(h.P99))
		fmt.Fprintf(&b, "%s_sum %s\n", n, promSeconds(h.SumNanos))
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
	}
	return b.String()
}

// --- trace rendering ---------------------------------------------------------

// TraceFilter selects which traces /traces renders.
type TraceFilter struct {
	Trace   obs.TraceID // only this trace (0 = all)
	Op      string      // only traces containing a span with this op
	ErrOnly bool        // only traces containing a failed span
	Limit   int         // newest N matching traces (0 = all)
}

// match reports whether one trace's spans satisfy the content filters
// (everything except Trace and Limit).
func (f TraceFilter) match(spans []obs.Span) bool {
	keepOp := f.Op == ""
	keepErr := !f.ErrOnly
	for _, s := range spans {
		if s.Op == f.Op {
			keepOp = true
		}
		if s.Err != "" {
			keepErr = true
		}
	}
	return keepOp && keepErr
}

// RenderTraces groups spans by trace, applies the filter at trace granularity,
// and renders each trace as an indented parent/child tree. A span whose parent
// is not in the provided rings (it lives in another process's ring, or was
// evicted) renders at the top level with its parent ID noted. The Limit is
// applied after all content filters, so "newest N" means newest N *matching*
// traces, not a window that filtering then thins out.
func RenderTraces(spans []obs.Span, f TraceFilter) string {
	byTrace := make(map[obs.TraceID][]obs.Span)
	for _, s := range spans {
		if s.Trace == 0 {
			continue
		}
		if f.Trace != 0 && s.Trace != f.Trace {
			continue
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	type trace struct {
		id    obs.TraceID
		start time.Duration
		spans []obs.Span
	}
	var traces []trace
	for id, ss := range byTrace {
		if !f.match(ss) {
			continue
		}
		start := ss[0].Start
		for _, s := range ss {
			if s.Start < start {
				start = s.Start
			}
		}
		traces = append(traces, trace{id: id, start: start, spans: ss})
	}
	sort.Slice(traces, func(i, j int) bool {
		if traces[i].start != traces[j].start {
			return traces[i].start < traces[j].start
		}
		return traces[i].id < traces[j].id
	})
	if f.Limit > 0 && len(traces) > f.Limit {
		traces = traces[len(traces)-f.Limit:]
	}
	var b strings.Builder
	for _, t := range traces {
		fmt.Fprintf(&b, "trace %s (%d spans)\n", t.id, len(t.spans))
		renderTree(&b, t.spans)
	}
	if b.Len() == 0 {
		return "no traces\n"
	}
	return b.String()
}

func renderTree(b *strings.Builder, spans []obs.Span) {
	present := make(map[obs.SpanID]bool, len(spans))
	for _, s := range spans {
		present[s.ID] = true
	}
	children := make(map[obs.SpanID][]obs.Span)
	var roots []obs.Span
	for _, s := range spans {
		if s.Parent != 0 && present[s.Parent] && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			roots = append(roots, s)
		}
	}
	order := func(ss []obs.Span) {
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].ID < ss[j].ID
		})
	}
	order(roots)
	for k := range children {
		order(children[k])
	}
	var walk func(s obs.Span, depth int)
	walk = func(s obs.Span, depth int) {
		fmt.Fprintf(b, "%s- %s\n", strings.Repeat("  ", depth+1), spanLine(s))
		for _, c := range children[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// spanLine is the one-line /traces rendering: structural fields first so
// parent/child relationships read off the page.
func spanLine(s obs.Span) string {
	var b strings.Builder
	fmt.Fprintf(&b, "span=%s", s.ID)
	if s.Parent != 0 {
		fmt.Fprintf(&b, " parent=%s", s.Parent)
	}
	if s.Proc != "" {
		fmt.Fprintf(&b, " proc=%s", s.Proc)
	}
	fmt.Fprintf(&b, " op=%s", s.Op)
	if s.Path != "" {
		fmt.Fprintf(&b, " path=%s", s.Path)
	}
	if s.Route != "" {
		fmt.Fprintf(&b, " route=%s", s.Route)
	}
	if s.Retries > 0 {
		fmt.Fprintf(&b, " retries=%d", s.Retries)
	}
	if s.Wait > 0 {
		fmt.Fprintf(&b, " wait=%v", s.Wait)
	}
	fmt.Fprintf(&b, " dur=%v", s.Dur)
	if s.Err != "" {
		fmt.Fprintf(&b, " err=%s", s.Err)
	}
	return b.String()
}

// --- slow-op log -------------------------------------------------------------

// AttachSlowOpLog installs a tracer commit hook that logs every span slower
// than threshold through log, carrying the trace/span IDs so a log line can be
// joined back to /traces output. It replaces any previous hook; a zero or
// negative threshold logs nothing (but still clears the hook).
func AttachSlowOpLog(tr *obs.Tracer, log *slog.Logger, threshold time.Duration) {
	if threshold <= 0 {
		tr.OnCommit(nil)
		return
	}
	tr.OnCommit(func(s obs.Span) {
		// A span starts when its worker picks the request up, so Dur is pure
		// service time and Wait is the queueing that preceded it; their sum is
		// what the caller experienced. Threshold on the sum, so an op that was
		// slow purely from queueing is still flagged — with the breakdown
		// saying so.
		total := s.Wait + s.Dur
		if total < threshold {
			return
		}
		log.Warn("slow op",
			"trace", s.Trace.String(),
			"span", s.ID.String(),
			"proc", s.Proc,
			"op", s.Op,
			"path", s.Path,
			"route", string(s.Route),
			"retries", s.Retries,
			"wait", s.Wait,
			"service", s.Dur,
			"dur", total,
			"err", s.Err,
		)
	})
}
