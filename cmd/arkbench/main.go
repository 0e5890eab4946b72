// Command arkbench regenerates every table and figure of the ArkFS paper's
// evaluation (IPDPS 2023 §IV) on the simulated substrate.
//
// Usage:
//
//	arkbench [flags] <experiment>...
//	arkbench all
//
// Experiments: fig1 fig4 fig5 fig6a fig6b fig7 table2 all
//
// Chaos mode: arkbench -chaos -seed N replays the seeded fault scenario
// exactly; a failing run prints its seed so the sequence can be reproduced.
// With -overload it instead replays the seeded overload-protection scenario
// (hostile-tenant flood against leader admission) and
// asserts its contract: no acked-op loss, polite goodput within 80% of the
// isolated baseline, typed pushback for the hostile tenant, convergence.
//
// Bench mode: arkbench -bench-json out.json -seed N writes the seeded
// benchmark trajectory (mdtest, fio, scalability, sharded sweep, takeover,
// metrics fingerprint) in the stable arkfs-bench/v6 schema; the same seed
// yields a byte-identical file.
//
// Fsck mode: arkbench -fsck -seed N deploys and populates a file system,
// shuts it down cleanly, bit-flips a few objects at rest, and reports what
// the offline checker detects; with -repair it also runs the scrubber and
// fails unless the image re-checks clean.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"arkfs/internal/harness"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/obs/expose"
)

// modeFlags is the subset of flags whose combinations can contradict each
// other; validateFlags rejects the nonsensical ones before any work starts.
type modeFlags struct {
	Chaos         bool
	Overload      bool // -overload (chaos-mode variant)
	Stats         bool
	StatsJSON     bool   // -json
	BenchJSON     string // -bench-json path
	BenchBaseline string // -bench-baseline path
	Fsck          bool
	FsckRepair    bool // -repair
}

// validateFlags returns a usage error for contradictory mode combinations:
// -chaos, -stats, -bench-json, and -fsck are exclusive modes, -json only
// formats -stats output, and -repair only modifies -fsck.
func validateFlags(m modeFlags) error {
	if m.Chaos && m.Stats {
		return errors.New("-chaos and -stats are exclusive modes; run them separately")
	}
	if m.BenchJSON != "" && m.Chaos {
		return errors.New("-bench-json and -chaos are exclusive modes; run them separately")
	}
	if m.BenchJSON != "" && m.Stats {
		return errors.New("-bench-json and -stats are exclusive modes; run them separately")
	}
	if m.Fsck && m.Chaos {
		return errors.New("-fsck and -chaos are exclusive modes; run them separately")
	}
	if m.Fsck && m.Stats {
		return errors.New("-fsck and -stats are exclusive modes; run them separately")
	}
	if m.Fsck && m.BenchJSON != "" {
		return errors.New("-fsck and -bench-json are exclusive modes; run them separately")
	}
	if m.StatsJSON && !m.Stats {
		return errors.New("-json only formats -stats output; add -stats (bench mode is always JSON via -bench-json)")
	}
	if m.FsckRepair && !m.Fsck {
		return errors.New("-repair only applies to -fsck; add -fsck")
	}
	if m.BenchBaseline != "" && m.BenchJSON == "" {
		return errors.New("-bench-baseline only checks -bench-json output; add -bench-json")
	}
	if m.Overload && !m.Chaos {
		return errors.New("-overload selects the chaos-mode overload scenario; add -chaos")
	}
	return nil
}

func main() {
	var (
		quick   = flag.Bool("quick", false, "use the quick (smoke-test) workload scale")
		csv     = flag.Bool("csv", false, "emit CSV instead of tables")
		quiet   = flag.Bool("quiet", false, "suppress progress logging")
		files   = flag.Int("mdtest-files", 0, "override mdtest files per process")
		procs   = flag.Int("procs", 0, "override mdtest/fio process count")
		clients = flag.String("clients", "", "override scalability client counts, e.g. 1,4,16,64")
		flaky   = flag.Float64("flaky", 0, "inject store failures into ArkFS runs with this probability (e.g. 0.1)")
		seed    = flag.Int64("flaky-seed", 1, "seed for the injected-failure RNG")
		retries = flag.Int("store-retries", 0, "enable the retrying store path with up to N attempts (0: off)")

		chaos      = flag.Bool("chaos", false, "run a seeded chaos scenario instead of an experiment")
		chaosSeed  = flag.Int64("seed", 1, "chaos/bench/fsck scenario seed; a failing run prints the seed to replay")
		chaosData  = flag.Bool("chaos-data", false, "chaos: write file contents and verify byte-exact read-back")
		chaosVerbo = flag.Bool("chaos-log", false, "chaos: print the full run narration")
		overload   = flag.Bool("overload", false, "chaos: run the seeded overload-protection scenario (hostile-tenant flood) instead of the fault scenario")

		stats     = flag.Bool("stats", false, "run an instrumented deployment and print its metrics")
		statsJSON = flag.Bool("json", false, "stats: emit the snapshot as JSON instead of a table")
		tenants   = flag.Int("tenants", 0, "stats: color the clients with N tenant IDs and run the zipfian multi-tenant workload (0: one tenant per client)")

		fsckMode   = flag.Bool("fsck", false, "run a seeded corruption/scrub drill instead of an experiment")
		fsckRepair = flag.Bool("repair", false, "fsck: scrub-repair the corrupted image and fail unless it re-checks clean")

		benchJSON     = flag.String("bench-json", "", "run the seeded benchmark trajectory and write the arkfs-bench/v6 report to this file (- for stdout)")
		benchBaseline = flag.String("bench-baseline", "", "bench: compare the run against this committed arkfs-bench/v6 report and fail on a regression of its headline rates or takeover times")
		debugAddr     = flag.String("debug-addr", "", "serve /metrics, /stats.json, /healthz and pprof on this address while running (empty: off)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: arkbench [flags] <fig1|fig4|fig5|fig6a|fig6b|fig7|table2|all|ablate|ablate-journal|ablate-readahead|ablate-entrysize>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := validateFlags(modeFlags{
		Chaos: *chaos, Overload: *overload, Stats: *stats, StatsJSON: *statsJSON,
		BenchJSON: *benchJSON, BenchBaseline: *benchBaseline,
		Fsck: *fsckMode, FsckRepair: *fsckRepair,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "arkbench: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		dbg, err := expose.Serve(*debugAddr, expose.Options{Reg: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "arkbench: debug server: %v\n", err)
			os.Exit(1)
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "arkbench: debug endpoints on http://%s/\n", dbg.Addr())
	}

	if *benchJSON != "" {
		cfg := harness.BenchConfig{Seed: *chaosSeed, Obs: reg}
		if *files > 0 {
			cfg.FilesPerProc = *files
		}
		if *procs > 0 {
			cfg.Procs = *procs
		}
		if *clients != "" {
			cfg.Clients = parseClients(*clients)
		}
		rep, err := harness.RunBench(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arkbench: bench: %v\n", err)
			os.Exit(1)
		}
		out := rep.JSON()
		if *benchJSON == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*benchJSON, out, 0644); err != nil {
			fmt.Fprintf(os.Stderr, "arkbench: bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "arkbench: bench seed %d: %d mdtest phases, fio %.2f/%.2f GiB/s, fingerprint %s\n",
			rep.Seed, len(rep.MdtestEasy)+len(rep.MdtestHard),
			rep.FioWrite.GiBps, rep.FioRead.GiBps, rep.MetricsSHA256[:12])
		if *benchBaseline != "" {
			if err := checkBaseline(rep, *benchBaseline); err != nil {
				fmt.Fprintf(os.Stderr, "arkbench: bench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "arkbench: bench: no regression against %s\n", *benchBaseline)
		}
		return
	}
	if *stats {
		snap, err := harness.RunStats(harness.StatsConfig{
			Flaky: *flaky, FlakySeed: *seed, Obs: reg,
			Tenants: *tenants, TenantSeed: *chaosSeed,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "arkbench: stats: %v\n", err)
			os.Exit(1)
		}
		if *statsJSON {
			os.Stdout.Write(snap.JSON())
			fmt.Println()
		} else {
			fmt.Print(snap.Table())
		}
		return
	}
	if *fsckMode {
		rep := harness.RunFsck(harness.FsckConfig{Seed: *chaosSeed, Repair: *fsckRepair})
		fmt.Print(rep.Summary())
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}
	if *chaos && *overload {
		rep := harness.RunOverload(harness.OverloadConfig{Seed: *chaosSeed})
		fmt.Print(rep.Summary())
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}
	if *chaos {
		rep := harness.RunChaos(harness.ChaosConfig{Seed: *chaosSeed, DataWrites: *chaosData})
		if *chaosVerbo {
			for _, line := range rep.Log {
				fmt.Fprintln(os.Stderr, line)
			}
		}
		fmt.Print(rep.Summary())
		if rep.Failed() {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	r := harness.NewRunner()
	if *quick {
		r.Scale = harness.QuickScale()
	}
	if *files > 0 {
		r.Scale.MdtestFilesPerProc = *files
	}
	if *procs > 0 {
		r.Scale.MdtestProcs = *procs
		r.Scale.FioProcs = *procs
	}
	if *clients != "" {
		r.Scale.ScaleClients = parseClients(*clients)
	}
	if *flaky > 0 {
		r.Flaky, r.FlakySeed = *flaky, *seed
	}
	if *retries > 0 {
		pol := objstore.DefaultRetryPolicy()
		pol.MaxAttempts = *retries
		r.Retry = &pol
	}
	if !*quiet {
		r.Log = func(s string) { fmt.Fprintf(os.Stderr, "[%s] %s\n", time.Now().Format("15:04:05"), s) }
	}

	run := map[string]func() (*harness.Experiment, error){
		"fig1":             r.Fig1,
		"fig4":             r.Fig4,
		"fig5":             r.Fig5,
		"fig6a":            r.Fig6a,
		"fig6b":            r.Fig6b,
		"fig7":             r.Fig7,
		"table2":           r.Table2,
		"ablate-journal":   r.AblationJournal,
		"ablate-readahead": r.AblationReadahead,
		"ablate-entrysize": r.AblationEntrySize,
		"ablate-leasemgr":  r.AblationLeaseManager,
	}
	order := []string{"fig1", "fig4", "fig5", "fig6a", "fig6b", "fig7", "table2"}
	ablations := []string{"ablate-journal", "ablate-readahead", "ablate-entrysize", "ablate-leasemgr"}

	var wanted []string
	for _, arg := range flag.Args() {
		if arg == "all" {
			wanted = order
			break
		}
		if arg == "ablate" {
			wanted = append(wanted, ablations...)
			continue
		}
		if _, ok := run[arg]; !ok {
			fmt.Fprintf(os.Stderr, "arkbench: unknown experiment %q\n", arg)
			os.Exit(2)
		}
		wanted = append(wanted, arg)
	}

	failed := false
	for _, name := range wanted {
		exp, err := run[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "arkbench: %s: %v\n", name, err)
			failed = true
			continue
		}
		if *csv {
			fmt.Print(exp.RenderCSV())
		} else {
			fmt.Println(exp.Render())
		}
	}
	if failed {
		os.Exit(1)
	}
}

// checkBaseline guards the committed benchmark trajectory: the regenerated
// report's headline rates (mdtest-easy CREATE, mdtest-hard WRITE in ops/s,
// fio WRITE in GiB/s, the sharded 512-client ACQUIRE rate) must not fall
// below the committed baseline, and no takeover point's first op or full
// table may take longer. Both runs
// are deterministic on the virtual clock, so an equal-seed comparison is
// exact — any drop is a real regression on the commit or write-back path,
// not measurement noise.
func checkBaseline(rep *harness.BenchReport, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base harness.BenchReport
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	if base.Schema != rep.Schema {
		return fmt.Errorf("baseline %s: schema %q, want %q", path, base.Schema, rep.Schema)
	}
	checks := []struct {
		label     string
		got, want float64
	}{
		{"mdtest-easy CREATE", phaseRate(rep.MdtestEasy, "CREATE"), phaseRate(base.MdtestEasy, "CREATE")},
		{"mdtest-hard WRITE", phaseRate(rep.MdtestHard, "WRITE"), phaseRate(base.MdtestHard, "WRITE")},
		{"fio WRITE", rep.FioWrite.GiBps, base.FioWrite.GiBps},
		{"sharded 512-client ACQUIRE", shardRate(rep.ShardedScalability, 512, true),
			shardRate(base.ShardedScalability, 512, true)},
	}
	for _, c := range checks {
		if c.want <= 0 {
			return fmt.Errorf("baseline %s: missing %s phase", path, c.label)
		}
		if c.got < c.want {
			return fmt.Errorf("%s regressed: %.3f below committed baseline %.3f",
				c.label, c.got, c.want)
		}
	}
	// The takeover curve is virtual time like the mdtest phases: exact, and
	// lower is better, for the first op and for the full table alike.
	for _, want := range base.Takeover {
		var got *harness.BenchTakeover
		for i, p := range rep.Takeover {
			if p.Store == want.Store && p.Entries == want.Entries && p.Crashed == want.Crashed {
				got = &rep.Takeover[i]
			}
		}
		if got == nil {
			return fmt.Errorf("takeover %s/%d entries (crashed: %v) missing", want.Store, want.Entries, want.Crashed)
		}
		for _, c := range []struct {
			label     string
			got, want int64
		}{{"first op", got.ElapsedNS, want.ElapsedNS}, {"full table", got.LoadedNS, want.LoadedNS}} {
			if c.got > c.want {
				return fmt.Errorf("takeover %s/%d entries (crashed: %v) %s regressed: %d ns above committed baseline %d ns",
					want.Store, want.Entries, want.Crashed, c.label, c.got, c.want)
			}
		}
	}
	// The sharded ring is pointless if it does not beat the single manager
	// where the single manager saturates: the largest sharded point must
	// clear its same-size single-manager twin.
	last := base.ShardedScalability
	if len(last) > 0 {
		nmax := 0
		for _, p := range last {
			if p.Clients > nmax {
				nmax = p.Clients
			}
		}
		single, multi := shardRate(rep.ShardedScalability, nmax, false), shardRate(rep.ShardedScalability, nmax, true)
		if single > 0 && multi <= single {
			return fmt.Errorf("sharded sweep: %d-client multi-shard rate %.1f does not beat single manager %.1f",
				nmax, multi, single)
		}
	}
	return nil
}

// shardRate finds the sharded-sweep rate for a client count; multi selects
// the multi-shard point, otherwise the single-manager twin.
func shardRate(points []harness.BenchShardPoint, clients int, multi bool) float64 {
	for _, p := range points {
		if p.Clients == clients && (p.Shards > 1) == multi {
			return p.CreatePerSec
		}
	}
	return 0
}

func phaseRate(phases []harness.BenchPhase, name string) float64 {
	for _, p := range phases {
		if p.Name == name {
			return p.OpsPerSec
		}
	}
	return 0
}

func parseClients(s string) []int {
	var cs []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "arkbench: bad -clients value %q\n", part)
			os.Exit(2)
		}
		cs = append(cs, n)
	}
	return cs
}
