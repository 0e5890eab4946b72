package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func names(decl []metricDecl) []string {
	out := make([]string, len(decl))
	for i, d := range decl {
		out[i] = d.Name
	}
	return out
}

func keys(m map[string]metricValue) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload at smoke scale, untraced and traced, with the
// output checks on: no call may fail, and the metrics that come out are
// exactly the declared ones.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, traced), func(t *testing.T) {
				o := options{seed: 1, seconds: 0, traced: traced, smoke: true, outDir: t.TempDir()}
				res, err := runWorkload(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := names(endToEnd)
				if traced {
					want = names(ledgerMetrics)
					if st, err := os.Stat(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
						t.Errorf("no trace file: %v", err)
					}
				}
				if got := keys(res.Metrics); !reflect.DeepEqual(got, sorted(want)) {
					t.Errorf("metrics\n got %v\nwant %v", got, sorted(want))
				}
				if !traced {
					for k, v := range res.Metrics {
						if !(v.Value > 0) {
							t.Errorf("end-to-end metric %s = %v, must never be 0", k, v.Value)
						}
					}
				}
			})
		}
	}
}

// TestProbes runs the microprobes at reduced size: every declared probe must
// report, and a probe that could run reports more than nothing (but for an
// allocation count that is 0 and a difference whose sign a short loop cannot
// tell).
func TestProbes(t *testing.T) {
	got := runProbes(true)
	if k := keys(got); !reflect.DeepEqual(k, sorted(names(probeMetrics()))) {
		t.Fatalf("probes\n got %v\nwant %v", k, sorted(names(probeMetrics())))
	}
	for k, v := range got {
		if !(v.Value > 0) && k != "journal.log_allocs" && k != "obs.stat_overhead_pct" {
			t.Errorf("probe %s = %v", k, v.Value)
		}
	}
}

// TestBenchmarkFile holds BENCHMARK.json to what the code declares and to the
// limits of its contract.
func TestBenchmarkFile(t *testing.T) {
	b, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 || len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer metrics: outside 2..8 / 1..16 / 1..128", len(b.Workloads), len(b.EndToEnd), len(b.PerLayer))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range b.Workloads {
		use(w.Name)
		if i >= len(workloads) || w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q differs from the code's, or its why is over 200 characters", i, w.Name)
		}
	}
	setup := 0.0
	for i, m := range b.EndToEnd {
		use(m.Name)
		if i >= len(endToEnd) || m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit || m.Better != endToEnd[i].Better {
			t.Errorf("end-to-end metric %d: %+v differs from the code's", i, m)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) || !unitRE.MatchString(m.Unit) {
			t.Errorf("end-to-end metric %s: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range b.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	for i, m := range b.PerLayer {
		use(m.Name)
		if i >= len(perLayer) || m != perLayer[i] || !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer metric %d: %+v differs from the code's", i, m)
		}
	}
	if len(b.Workloads) != len(workloads) || len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d/%d/%d workloads/end-to-end/per-layer, the code %d/%d/%d",
			len(b.Workloads), len(b.EndToEnd), len(b.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
}

// TestBaselineFile holds baseline.json (what BENCHMARK.json's fixed set of
// keys has no room for) to the code: the frozen sizes are the code's, every
// end-to-end metric says what it measures on every workload, and every
// workload has a parent-commit reading of every end-to-end metric.
func TestBaselineFile(t *testing.T) {
	raw, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		RunSeconds int                           `json:"run_seconds"`
		RefSeconds float64                       `json:"reference_work_seconds"`
		Sizes      map[string]any                `json:"sizes"`
		Reports    map[string]map[string]string  `json:"reports"`
		Baseline   map[string]map[string]float64 `json:"baseline"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != bf.RunSeconds || b.RefSeconds != refSeconds {
		t.Errorf("run_seconds %d, reference_work_seconds %v: BENCHMARK.json says %d, the code %v", b.RunSeconds, b.RefSeconds, bf.RunSeconds, refSeconds)
	}
	code, err := json.Marshal(fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(code, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Sizes, want) {
		t.Errorf("sizes\n got %v\nwant %v", b.Sizes, want)
	}
	for _, m := range endToEnd {
		for _, w := range workloads {
			if b.Reports[m.Name][w.Name] == "" {
				t.Errorf("reports: nothing says what %s is on %s", m.Name, w.Name)
			}
			if !(b.Baseline[w.Name][m.Name] > 0) {
				t.Errorf("baseline: no reading of %s on %s", m.Name, w.Name)
			}
		}
	}
}
