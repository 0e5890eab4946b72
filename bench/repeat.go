package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is BENCHMARK.json as far as the bench reads it.
type benchmarkFile struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles returns the first and third quartile and the median of v by the
// method of Python's statistics.quantiles(v, n=4) (exclusive), which is what
// the acceptance check uses.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), median(s), at(3)
}

// runRepeat runs n sets (seeds seed, seed+1, …) of every selected workload
// with tracing off and prints, for every end-to-end metric, the median, the
// quartiles, and the spread between the quartiles as a share of the median
// and of the metric's bound. Run it twice to see that two sets agree.
func runRepeat(ws []workload, o options, n int) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	bounds := map[string]float64{}
	if b, err := readBenchmarkFile("BENCHMARK.json"); err == nil {
		for _, m := range b.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	} else {
		fmt.Fprintf(os.Stderr, "bench: no bounds: %v\n", err)
	}
	o.traced = false
	failed := false
	for _, w := range ws {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			oi := o
			oi.seed = o.seed + int64(i)
			res, err := runWorkload(w, oi)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, oi.seed, err)
			}
			failed = failed || !res.Correct
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v.Value)
			}
		}
		fmt.Printf("== %s: %d runs, seeds %d..%d, %.0f s each\n", w.Name, n, o.seed, o.seed+int64(n)-1, o.seconds)
		fmt.Printf("  %-18s %14s %14s %14s %8s %8s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "spread/bound")
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(vals[d.Name])
			spread := (q3 - q1) / med
			line := fmt.Sprintf("  %-18s %14.4f %14.4f %14.4f %7.2f%%", d.Name, med, q1, q3, spread*100)
			if b := bounds[d.Name]; b > 0 {
				line += fmt.Sprintf(" %7.0f%% %.2f", b*100, spread/b)
			}
			fmt.Println(line)
		}
	}
	if failed {
		return fmt.Errorf("a run failed its output checks")
	}
	return nil
}
