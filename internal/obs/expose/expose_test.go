package expose

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"arkfs/internal/obs"
)

// promLine is the grammar of one exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? [-+]?([0-9]*\.)?[0-9]+([eE][-+]?[0-9]+)?$`)

func TestPrometheusTextFormat(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("core.meta.local").Add(42)
	reg.Gauge("journal.queue.depth").Set(3)
	h := reg.Histogram("core.op.stat")
	h.Observe(2 * time.Microsecond)
	h.Observe(100 * time.Millisecond)

	out := PrometheusText(reg.Snapshot())
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Fatalf("bad comment line: %q", line)
			}
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("bad sample line: %q", line)
		}
	}
	for _, want := range []string{
		"# TYPE core_meta_local counter",
		"core_meta_local 42",
		"# TYPE journal_queue_depth gauge",
		"journal_queue_depth 3",
		"# TYPE core_op_stat summary",
		`core_op_stat{quantile="0.5"}`,
		`core_op_stat{quantile="0.99"}`,
		"core_op_stat_sum ",
		"core_op_stat_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "#") && strings.Contains(line, "core.meta") {
			t.Fatalf("dotted name leaked into sample line: %q", line)
		}
	}
}

func TestPromNameSanitizes(t *testing.T) {
	for in, want := range map[string]string{
		"core.op.stat": "core_op_stat",
		"2pc.commits":  "_pc_commits",
		"a-b/c":        "a_b_c",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func newTestSpans(t *testing.T) (*obs.Tracer, *obs.Tracer, obs.SpanContext) {
	t.Helper()
	a := obs.NewTracer(16, nil)
	a.SetProc("procA")
	a.SetSeed(1)
	b := obs.NewTracer(16, nil)
	b.SetProc("procB")
	b.SetSeed(2)

	root := a.StartRoot("create", "/d/f")
	child := b.StartChild(root.Context(), "serve.create", "")
	grand := b.StartChild(child.Context(), "journal.commit", "j/1")
	grand.End(nil)
	child.End(nil)
	root.End(nil)

	bad := a.StartRoot("stat", "/missing")
	bad.End(errors.New("ENOENT"))
	return a, b, root.Context()
}

func TestRenderTracesTree(t *testing.T) {
	a, b, rc := newTestSpans(t)
	out := RenderTraces(append(a.Spans(), b.Spans()...), TraceFilter{Trace: rc.Trace})
	if !strings.Contains(out, "trace "+rc.Trace.String()) {
		t.Fatalf("missing trace header:\n%s", out)
	}
	// Indentation mirrors depth: root at one level, child at two, grandchild
	// at three.
	for frag, depth := range map[string]int{
		"op=create":         1,
		"op=serve.create":   2,
		"op=journal.commit": 3,
	} {
		found := false
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, frag) {
				found = true
				if !strings.HasPrefix(line, strings.Repeat("  ", depth)+"- ") {
					t.Fatalf("%s at wrong depth (want %d):\n%s", frag, depth, out)
				}
			}
		}
		if !found {
			t.Fatalf("missing %s:\n%s", frag, out)
		}
	}
	if strings.Contains(out, "op=stat") {
		t.Fatalf("trace filter leaked another trace:\n%s", out)
	}
	// Both processes appear in the one trace.
	if !strings.Contains(out, "proc=procA") || !strings.Contains(out, "proc=procB") {
		t.Fatalf("trace does not span both procs:\n%s", out)
	}
}

func TestRenderTracesFilters(t *testing.T) {
	a, b, _ := newTestSpans(t)
	all := append(a.Spans(), b.Spans()...)

	if out := RenderTraces(all, TraceFilter{ErrOnly: true}); !strings.Contains(out, "op=stat") ||
		strings.Contains(out, "op=create") {
		t.Fatalf("err filter wrong:\n%s", out)
	}
	if out := RenderTraces(all, TraceFilter{Op: "journal.commit"}); !strings.Contains(out, "op=create") ||
		strings.Contains(out, "op=stat") {
		t.Fatalf("op filter should keep the whole matching trace only:\n%s", out)
	}
	if out := RenderTraces(all, TraceFilter{Limit: 1}); strings.Contains(out, "op=create") ||
		!strings.Contains(out, "op=stat") {
		t.Fatalf("limit should keep the newest trace:\n%s", out)
	}
	if out := RenderTraces(nil, TraceFilter{}); out != "no traces\n" {
		t.Fatalf("empty render = %q", out)
	}
}

func TestRenderTracesOrphanParent(t *testing.T) {
	// A child whose parent lives in another (absent) ring still renders, at
	// the top level of its trace.
	tr := obs.NewTracer(4, nil)
	tr.SetSeed(9)
	orphan := tr.StartChild(obs.SpanContext{Trace: 0xabc, Span: 0xdef}, "serve.stat", "")
	orphan.End(nil)
	out := RenderTraces(tr.Spans(), TraceFilter{})
	if !strings.Contains(out, "op=serve.stat") || !strings.Contains(out, "parent=0000000000000def") {
		t.Fatalf("orphan span lost:\n%s", out)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("core.meta.local").Inc()
	a, b, rc := newTestSpans(t)
	h := Handler(Options{Reg: reg, Tracers: []*obs.Tracer{a, b}})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string, wantCode int) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s = %d, want %d: %s", path, resp.StatusCode, wantCode, body)
		}
		return string(body)
	}

	if out := get("/metrics", 200); !strings.Contains(out, "core_meta_local 1") {
		t.Fatalf("/metrics:\n%s", out)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/stats.json", 200)), &snap); err != nil {
		t.Fatalf("/stats.json not JSON: %v", err)
	}
	if snap.Counters["core.meta.local"] != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if out := get("/traces?trace="+rc.Trace.String(), 200); !strings.Contains(out, "op=serve.create") {
		t.Fatalf("/traces by id:\n%s", out)
	}
	if out := get("/traces?err=1&limit=5", 200); !strings.Contains(out, "op=stat") {
		t.Fatalf("/traces err filter:\n%s", out)
	}
	get("/traces?trace=zzz", 400)
	get("/traces?limit=-1", 400)
	if out := get("/healthz", 200); !strings.Contains(out, "ok") {
		t.Fatalf("/healthz: %s", out)
	}
	if out := get("/", 200); !strings.Contains(out, "/metrics") {
		t.Fatalf("index: %s", out)
	}
	get("/nope", 404)
	if out := get("/debug/pprof/cmdline", 200); out == "" {
		t.Fatal("pprof cmdline empty")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	s, err := Serve("127.0.0.1:0", Options{Reg: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

func TestAttachSlowOpLog(t *testing.T) {
	tr := obs.NewTracer(8, nil)
	tr.SetProc("p")
	tr.SetSeed(5)
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	AttachSlowOpLog(tr, log, 1*time.Nanosecond)

	sp := tr.StartRoot("mkdir", "/slow")
	time.Sleep(2 * time.Millisecond) // wall clock: tracer uses the default clock
	sp.End(nil)
	out := buf.String()
	if !strings.Contains(out, "slow op") || !strings.Contains(out, "op=mkdir") ||
		!strings.Contains(out, "trace="+sp.Trace.String()) {
		t.Fatalf("slow-op log line missing fields: %q", out)
	}

	// Threshold 0 clears the hook.
	buf.Reset()
	AttachSlowOpLog(tr, log, 0)
	sp2 := tr.StartRoot("mkdir", "/fast")
	sp2.End(nil)
	if buf.Len() != 0 {
		t.Fatalf("cleared hook still logged: %q", buf.String())
	}
}

// TestRenderTracesLimitAfterFilter: Limit selects the newest N traces among
// those that MATCH the content filters. A newer non-matching trace must not
// consume the limit window and squeeze out an older matching one.
func TestRenderTracesLimitAfterFilter(t *testing.T) {
	mk := func(trace obs.TraceID, start time.Duration, op string) obs.Span {
		return obs.Span{Trace: trace, ID: obs.SpanID(trace), Op: op,
			Start: start, Dur: time.Millisecond, Proc: "p"}
	}
	spans := []obs.Span{
		mk(1, 10*time.Millisecond, "create"), // oldest, matching
		mk(2, 20*time.Millisecond, "stat"),
		mk(3, 30*time.Millisecond, "unlink"), // newest, not matching
	}

	out := RenderTraces(spans, TraceFilter{Op: "create", Limit: 1})
	if !strings.Contains(out, "op=create") {
		t.Fatalf("limit ate the only matching trace:\n%s", out)
	}
	if strings.Contains(out, "op=stat") || strings.Contains(out, "op=unlink") {
		t.Fatalf("op filter leaked non-matching traces:\n%s", out)
	}

	// Unfiltered limit still means the newest trace overall.
	out = RenderTraces(spans, TraceFilter{Limit: 1})
	if !strings.Contains(out, "op=unlink") || strings.Contains(out, "op=create") {
		t.Fatalf("plain limit should keep only the newest trace:\n%s", out)
	}
}

// TestSpanLineWait: the one-line rendering carries the queue wait, and omits
// it when unset.
func TestSpanLineWait(t *testing.T) {
	s := obs.Span{Trace: 7, ID: 7, Op: "create", Proc: "p",
		Wait: 3 * time.Millisecond, Dur: time.Millisecond}
	line := spanLine(s)
	if !strings.Contains(line, "wait=3ms") {
		t.Fatalf("no wait in span line: %q", line)
	}
	s.Wait = 0
	line = spanLine(s)
	if strings.Contains(line, "wait=") {
		t.Fatalf("unset wait rendered: %q", line)
	}
}

// TestAttachSlowOpLogBreakdown: the slow-op line reports the wait/service
// decomposition, and the threshold applies to wait+service so a
// queue-starved op logs even when its service time alone is under threshold.
func TestAttachSlowOpLogBreakdown(t *testing.T) {
	tr := obs.NewTracer(8, nil)
	tr.SetProc("p")
	tr.SetSeed(6)
	var buf strings.Builder
	log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	AttachSlowOpLog(tr, log, time.Hour)

	sp := tr.StartRoot("create", "/q")
	sp.SetWait(2 * time.Hour) // queue wait alone crosses the threshold
	sp.End(nil)
	out := buf.String()
	if !strings.Contains(out, "slow op") {
		t.Fatalf("queue-starved op not logged: %q", out)
	}
	for _, want := range []string{"wait=2h0m0s", "service=", "op=create"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-op line missing %q: %q", want, out)
		}
	}
}
