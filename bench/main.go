// Command bench is the repository benchmark: four wall-clock workloads and one
// virtual-clock workload driven through fsapi.FileSystem against in-process
// ArkFS deployments, with a per-layer ledger measured from outside the
// program. See README.md in this directory.
//
//	go run ./bench [-workload W] [-seed N] [-seconds S] [-trace 1] [-probes] [-repeat N] [-scale smoke] [-v]
//
// With -workload the last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*roundCtx) (*round, error)
}

// workloads are the five workloads, with the reason each exists. Every one
// reports three phase throughputs; what phase 3 is differs and is named here.
var workloads = []workload{
	{"mdtest_easy", "2 clients x 16 private dirs x 2500 empty files: create, stat, delete (phase 3), then drain. Leader-local metadata path; rpc, cache and lease idle; big-directory checkpoints dominate wall_s.", runEasy},
	{"mdtest_hard", "2 clients forward every call to a third that leads 4 shared dirs: create+write 2 x 2000 files of 3901 B, stat, open+read the other's files (phase 3), delete. rpc, envelopes, small-file cache path.", runHard},
	{"fio_seq", "2 clients with a 32 MiB cache: write a 192 MiB file in 128 KiB requests + fsync, cold read by fresh clients, cached re-read of a 16 MiB prefix (phase 3). Data path only; an op is a request.", runFio},
	{"archive_tree", "Paper IV-D per process: tar in and extract 1600 files of 2-96 KiB into 88 dirs, then fresh clients unarchive (walk+read) and scan (walk+stat, phase 3), then purge. Lease churn, small directories.", runArchive},
	{"sim_rados", "16 simulated clients on the RADOS model, phases in virtual time: private-dir creates, 64 MiB sequential reads, stats after crash recovery (phase 3). wall_s is the simulator's own speed.", runSim},
}

// fullSizes are the frozen sizes of one full-scale round of each workload.
// baseline.json declares them next to the numbers they produced at the commit
// that defined the benchmark, and the tier-1 test holds the two together, so
// a change of load cannot pass as a change of speed.
var fullSizes = map[string]any{
	"mdtest_easy":  easyFull,
	"mdtest_hard":  hardFull,
	"fio_seq":      fioFull,
	"archive_tree": archFull,
	"sim_rados":    simFull,
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	smoke   bool
	outDir  string // trace files and results.json go here
	verbose bool
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all five, one after the other)")
		seed    = flag.Int64("seed", 1, "seed of every generated input: op order, dataset sizes, payload bytes")
		seconds = flag.Float64("seconds", 20, "how long one run measures; rounds of fixed size repeat until it is used up")
		trace   = flag.Int("trace", 0, "1: traced run, the metrics are the per-layer ledger; 0: end-to-end metrics")
		probes  = flag.Bool("probes", false, "run only the per-layer microprobes and print them")
		repeat  = flag.Int("repeat", 0, "run N full sets (seeds seed..seed+N-1) and print each end-to-end metric's median, quartiles and spread")
		scale   = flag.String("scale", "full", "full, or smoke: tiny rounds for the tier-1 test (never written to BENCHMARK.json)")
		verbose = flag.Bool("v", false, "print every round's phases to standard error")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *scale != "full" && *scale != "smoke" {
		fatal(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace is 0 or 1, not %d", *trace))
	}
	// Two load goroutines plus the program's own workers; more processors than
	// four would change how much runs in parallel from box to box.
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *trace == 1, smoke: *scale == "smoke", outDir: filepath.Join("bench", "out"), verbose: *verbose}

	if *probes {
		printTable(runProbes(o.smoke), probeMetrics())
		return
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "" || *name == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *repeat > 0 {
		if err := runRepeat(selected, o, *repeat); err != nil {
			fatal(err)
		}
		return
	}
	ok := true
	all := map[string]result{}
	var probed map[string]metricValue
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.Name, err))
		}
		if o.traced {
			// The microprobes do not depend on the workload; they run once
			// per invocation and every traced result carries them.
			if probed == nil {
				probed = runProbes(o.smoke)
			}
			for k, v := range probed {
				res.Metrics[k] = v
			}
		}
		all[w.Name] = res
		ok = ok && res.Correct
		decl := endToEnd
		if o.traced {
			decl = perLayer
		}
		fmt.Printf("== %s (seed %d, %s)\n", w.Name, o.seed, map[bool]string{false: "end to end", true: "per layer"}[o.traced])
		printTable(res.Metrics, decl)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if *name == "" {
		if err := writeJSON(filepath.Join(o.outDir, "results.json"), all); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload repeats fixed-size rounds of w, each on a fresh deployment with
// inputs drawn from (seed, round number), until o.seconds are used up, and
// reduces them to the declared metrics. Every wall clock of a round runs
// between two samples of the reference work (calib.go), and the run's
// wall-clock metrics are reported at reference speed. An untraced run reports
// the end-to-end metrics. A traced run alternates traced and untraced rounds
// (the difference is the tracing overhead) and reports the ledger part of the
// per-layer metrics; main adds the microprobes.
func runWorkload(w workload, o options) (result, error) {
	var plain, traced, all []*round
	cal := newCalibrator(o.smoke)
	var kept any
	cal.sample() // first touch of the buffers
	heapBase := liveHeap(0)
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	for i := 0; ; i++ {
		// Start every round from a collected heap, so the garbage of one
		// round's deployment is not charged to the next round's clocks.
		runtime.GC()
		rc := &roundCtx{rng: rand.New(rand.NewSource(o.seed*1_000_003 + int64(i))), smoke: o.smoke, cal: cal, heapBase: heapBase, kept: &kept}
		if o.traced && i%2 == 0 {
			rc.rec = newRecorder()
		}
		t0 := time.Now()
		r, err := w.run(rc)
		if err != nil {
			return result{}, fmt.Errorf("round %d: %w", i, err)
		}
		for _, p := range r.problems {
			fmt.Fprintf(os.Stderr, "bench: %s round %d: check failed: %s\n", w.Name, i, p)
		}
		if o.verbose {
			fmt.Fprintf(os.Stderr, "%s round %d traced=%v: setup %.3fs", w.Name, i, rc.rec != nil, r.setup.Seconds())
			for _, p := range append(r.phases[:], r.extra...) {
				fmt.Fprintf(os.Stderr, " | %s %d ops %.3fs %.0f/s", p.name, p.ops, p.dur.Seconds(), p.perSec())
			}
			fmt.Fprintf(os.Stderr, " | drain %.3fs wall %.3fs heap %.1f MiB total %.3fs box %.3f\n", r.drain.Seconds(), r.wall.Seconds(), r.heap, time.Since(t0).Seconds(), cal.between(r.cal0, r.cal1))
		}
		all = append(all, r)
		if rc.rec != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		// Stop when the next round would end further from the budget than
		// this one did.
		used, last := time.Since(start), time.Since(t0)
		if used+last/2 >= budget && (!o.traced || len(plain) > 0) {
			break
		}
	}
	cal.scaleRounds(all)
	slowdown := cal.between(0, len(cal.all))
	if o.verbose {
		fmt.Fprintf(os.Stderr, "%s: the reference work took %.3f times (%d samples) what it takes at reference speed\n", w.Name, slowdown, len(cal.all))
	}
	res := result{Metrics: endToEndOf(plain)}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if o.traced {
		res.Metrics = ledgerOf(plain, traced, slowdown)
		if err := traced[0].rec.writeJSONL(filepath.Join(o.outDir, "trace-"+w.Name+".jsonl")); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// printTable prints the metrics in declaration order.
func printTable(m map[string]metricValue, decl []metricDecl) {
	for _, d := range decl {
		if v, ok := m[d.Name]; ok {
			fmt.Printf("  %-36s %16.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
