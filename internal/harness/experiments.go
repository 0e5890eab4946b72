package harness

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"arkfs/internal/baseline/pathfs"
	"arkfs/internal/fsapi"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/workload"
)

// Cell is one reported measurement.
type Cell struct {
	System string
	Metric string // phase or series point
	Value  float64
	Unit   string
	Failed bool // the paper reports this cell as erroring (MarFS READ)
}

// Experiment is one regenerated figure/table.
type Experiment struct {
	ID    string // "fig4", "table2", ...
	Title string
	Cells []Cell
	Notes []string
}

// sysBuilder is one system compared in a figure.
type sysBuilder struct {
	name  string
	build builder
}

// mdtestSystems lists the systems compared in Figs. 4 and 5.
func (h *Runner) mdtestSystems() []sysBuilder {
	cal := h.Cal
	rados := objstore.RADOSProfile()
	return []sysBuilder{
		{"ArkFS", arkfs(cal, rados, h.ark(ArkFSOptions{PermCache: true}))},
		{"CephFS-K (1 MDS)", ceph(cal, rados, CephOptions{NumMDS: 1})},
		{"CephFS-K (16 MDS)", ceph(cal, rados, CephOptions{NumMDS: 16})},
		{"CephFS-F", ceph(cal, rados, CephOptions{NumMDS: 1, FUSE: true})},
		{"MarFS", func(env sim.Env, n int) (*Deployment, error) {
			return BuildMarFS(env, cal, rados, n, h.MarFSReadFails)
		}},
	}
}

// Runner executes experiments.
type Runner struct {
	Cal   Calibration
	Scale Scale
	// MarFSReadFails reproduces the paper's failing MarFS READ phase.
	MarFSReadFails bool
	// Flaky/FlakySeed inject a probabilistic fault layer under every ArkFS
	// deployment; Retry enables the clients' retrying store path. Together
	// they turn any experiment into a fault-injection run.
	Flaky     float64
	FlakySeed int64
	Retry     *objstore.RetryPolicy
	// Log receives progress lines; nil discards them.
	Log func(string)
}

// ark merges the Runner-level fault/retry settings into per-experiment
// ArkFS options.
func (h *Runner) ark(o ArkFSOptions) ArkFSOptions {
	if h.Flaky > 0 {
		o.FlakyProb, o.FlakySeed = h.Flaky, h.FlakySeed
	}
	if o.Retry == nil {
		o.Retry = h.Retry
	}
	return o
}

// NewRunner builds a Runner with defaults.
func NewRunner() *Runner {
	return &Runner{Cal: DefaultCalibration(), Scale: DefaultScale(), MarFSReadFails: true}
}

func (h *Runner) logf(format string, args ...any) {
	if h.Log != nil {
		h.Log(fmt.Sprintf(format, args...))
	}
}

// Fig4 regenerates "Throughput of mdtest-easy" (kIOPS per phase per system).
func (h *Runner) Fig4() (*Experiment, error) {
	return h.mdtest(&Experiment{ID: "fig4", Title: "Fig. 4: mdtest-easy throughput (kIOPS)", Notes: []string{fmt.Sprintf(
		"%d procs x %d empty files, own leaf dirs, fsync per phase (paper: 16 procs x 1M files)",
		h.Scale.MdtestProcs, h.Scale.MdtestFilesPerProc)}},
		workload.MdtestEasy, workload.MdtestConfig{FilesPerProc: h.Scale.MdtestFilesPerProc})
}

// Fig5 regenerates "Throughput of mdtest-hard".
func (h *Runner) Fig5() (*Experiment, error) {
	return h.mdtest(&Experiment{ID: "fig5", Title: "Fig. 5: mdtest-hard throughput (kIOPS)", Notes: []string{
		fmt.Sprintf("%d procs x %d files of 3901 B across %d shared dirs (paper: 16 procs x 1M files)",
			h.Scale.MdtestProcs, h.Scale.MdtestFilesPerProc, h.Scale.MdtestSharedDirs),
		"MarFS READ reported as failed, matching the paper's environment"}},
		workload.MdtestHard, workload.MdtestConfig{
			FilesPerProc: h.Scale.MdtestFilesPerProc, FileSize: 3901, SharedDirs: h.Scale.MdtestSharedDirs,
		})
}

// mdtest runs one mdtest workload on every system of Figs. 4 and 5 and adds a
// cell per phase to exp.
func (h *Runner) mdtest(exp *Experiment,
	run func(sim.Env, []fsapi.FileSystem, workload.MdtestConfig) ([]workload.PhaseResult, error),
	cfg workload.MdtestConfig) (*Experiment, error) {
	for _, sys := range h.mdtestSystems() {
		h.logf("%s: running %s", exp.ID, sys.name)
		err := simulate(h.Scale.MdtestProcs, sys.build, func(env sim.Env, d *Deployment) error {
			phases, err := run(env, d.Mounts, cfg)
			for _, p := range phases {
				exp.Cells = append(exp.Cells, Cell{
					System: sys.name, Metric: p.Name,
					Value: p.OpsPerSec() / 1000, Unit: "kIOPS",
					Failed: p.Errors > 0,
				})
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", exp.ID, sys.name, err)
		}
	}
	return exp, nil
}

// fioRun runs the fio workload at the Runner's scale on one system.
func (h *Runner) fioRun(name string, build builder) (w, r workload.BandwidthResult, err error) {
	h.logf("fio: running %s", name)
	return fio(h.Scale.FioProcs, build, workload.FioConfig{FileSize: h.Scale.FioFileSize, ReqSize: h.Scale.FioReqSize})
}

// fio runs the fio workload on n clients, dropping their caches between the
// passes.
func fio(n int, build builder, cfg workload.FioConfig) (w, r workload.BandwidthResult, err error) {
	err = simulate(n, build, func(env sim.Env, d *Deployment) (err error) {
		cfg.DropCaches = d.DropAllCaches
		w, r, err = workload.Fio(env, d.Mounts, cfg)
		return err
	})
	return w, r, err
}

// bandwidth adds every system's fio WRITE and READ cells to exp.
func (h *Runner) bandwidth(exp *Experiment, systems []sysBuilder) (*Experiment, error) {
	for _, sys := range systems {
		w, r, err := h.fioRun(sys.name, sys.build)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", exp.ID, sys.name, err)
		}
		exp.Cells = append(exp.Cells,
			Cell{System: sys.name, Metric: "WRITE", Value: w.GiBps(), Unit: "GiB/s"},
			Cell{System: sys.name, Metric: "READ", Value: r.GiBps(), Unit: "GiB/s"})
	}
	return exp, nil
}

// Fig6a regenerates the RADOS half of "Large File I/O Bandwidth".
func (h *Runner) Fig6a() (*Experiment, error) {
	cal := h.Cal
	rados := objstore.RADOSProfile()
	return h.bandwidth(&Experiment{ID: "fig6a", Title: "Fig. 6(a): large-file bandwidth on RADOS (GiB/s)", Notes: []string{fmt.Sprintf(
		"%d procs x %d MiB sequential, %d KiB requests, fsync+drop-cache between passes (paper: 32 procs x 32 GiB)",
		h.Scale.FioProcs, h.Scale.FioFileSize>>20, h.Scale.FioReqSize>>10)}}, []sysBuilder{
		{"ArkFS", arkfs(cal, rados, h.ark(ArkFSOptions{PermCache: true}))},
		{"CephFS-K", ceph(cal, rados, CephOptions{NumMDS: 1})},
		{"CephFS-F", ceph(cal, rados, CephOptions{NumMDS: 1, FUSE: true})},
	})
}

// Fig6b regenerates the S3 half of Fig. 6.
func (h *Runner) Fig6b() (*Experiment, error) {
	cal := h.Cal
	s3 := objstore.S3Profile()
	return h.bandwidth(&Experiment{ID: "fig6b", Title: "Fig. 6(b): large-file bandwidth on S3 (GiB/s)", Notes: []string{
		"ArkFS-ra400MB raises the max read-ahead to goofys's 400 MiB window"}}, []sysBuilder{
		{"ArkFS-ra8MB", arkfs(cal, s3, h.ark(ArkFSOptions{PermCache: true, Readahead: 8 << 20}))},
		{"ArkFS-ra400MB", arkfs(cal, s3, h.ark(ArkFSOptions{PermCache: true, Readahead: 400 << 20, CacheEntries: 250}))},
		{"S3FS", pathFS(cal, s3, pathfs.S3FS)},
		{"goofys", pathFS(cal, s3, pathfs.Goofys)},
	})
}

// createRate is mdtest-easy's aggregate CREATE throughput on n clients.
func createRate(n int, build builder, cfg workload.MdtestConfig) (thr float64, err error) {
	err = simulate(n, build, func(env sim.Env, d *Deployment) error {
		phases, err := workload.MdtestEasy(env, d.Mounts, cfg)
		if err == nil {
			thr = phases[0].OpsPerSec() // CREATE
		}
		return err
	})
	return thr, err
}

// scaleCreate measures aggregate CREATE throughput at a given client count.
func (h *Runner) scaleCreate(build builder, clients int) (float64, error) {
	return createRate(clients, build, workload.MdtestConfig{FilesPerProc: h.Scale.ScaleFilesPerProc, Root: "/scale"})
}

// Fig1 regenerates the motivation figure: CephFS-K(1 MDS) creation
// throughput vs client count, with the ideal linear line.
func (h *Runner) Fig1() (*Experiment, error) {
	exp := &Experiment{ID: "fig1", Title: "Fig. 1: single-MDS creation throughput vs clients (kIOPS)"}
	build := ceph(h.Cal, objstore.RADOSProfile(), CephOptions{NumMDS: 1})
	var base float64
	for _, n := range h.Scale.ScaleClients {
		h.logf("fig1: %d clients", n)
		thr, err := h.scaleCreate(build, n)
		if err != nil {
			return nil, fmt.Errorf("fig1 @%d: %w", n, err)
		}
		if base == 0 {
			base = thr
		}
		exp.Cells = append(exp.Cells,
			Cell{System: "CephFS-K (1 MDS)", Metric: fmt.Sprintf("%d", n), Value: thr / 1000, Unit: "kIOPS"},
			Cell{System: "ideal", Metric: fmt.Sprintf("%d", n), Value: base * float64(n) / 1000, Unit: "kIOPS"})
	}
	exp.Notes = append(exp.Notes, fmt.Sprintf(
		"massive file creation, %d files per client, own directories", h.Scale.ScaleFilesPerProc))
	return exp, nil
}

// Fig7 regenerates the scalability figure: normalized creation throughput
// vs clients for ArkFS-pcache, ArkFS-no-pcache, CephFS-K 1 and 16 MDS.
func (h *Runner) Fig7() (*Experiment, error) {
	exp := &Experiment{ID: "fig7", Title: "Fig. 7: normalized creation throughput vs clients"}
	cal := h.Cal
	rados := objstore.RADOSProfile()
	systems := []sysBuilder{
		{"ArkFS-pcache", arkfs(cal, rados, h.ark(ArkFSOptions{PermCache: true}))},
		{"ArkFS-no-pcache", arkfs(cal, rados, h.ark(ArkFSOptions{PermCache: false}))},
		{"CephFS-K (1 MDS)", ceph(cal, rados, CephOptions{NumMDS: 1})},
		{"CephFS-K (16 MDS)", ceph(cal, rados, CephOptions{NumMDS: 16})},
	}
	// Normalize to ArkFS-pcache at 1 client, as the paper normalizes its
	// y-axis to a single-client baseline.
	var norm float64
	for _, sys := range systems {
		for _, n := range h.Scale.ScaleClients {
			h.logf("fig7: %s @ %d clients", sys.name, n)
			thr, err := h.scaleCreate(sys.build, n)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s @%d: %w", sys.name, n, err)
			}
			if norm == 0 {
				norm = thr
			}
			exp.Cells = append(exp.Cells, Cell{
				System: sys.name, Metric: fmt.Sprintf("%d", n),
				Value: thr / norm, Unit: "x",
			})
		}
	}
	exp.Notes = append(exp.Notes,
		"normalized to ArkFS-pcache at 1 client; log-scale in the paper",
		fmt.Sprintf("%d files per client, own directories", h.Scale.ScaleFilesPerProc))
	return exp, nil
}

// Table2 regenerates the archiving/unarchiving execution times.
func (h *Runner) Table2() (*Experiment, error) {
	exp := &Experiment{ID: "table2", Title: "Table II: archiving scenario execution times (s)"}
	cal := h.Cal
	// Real payloads are required (tar framing is parsed back), so the
	// cluster retains all object data in this experiment.
	rados := objstore.RADOSProfile()
	rados.SizeOnlyPrefix = ""

	dcfg := workload.DatasetConfig{
		Files: h.Scale.ArchiveFiles, MinSize: 2 << 10, MaxSize: 96 << 10,
		Categories: 16, Seed: 42,
	}
	dataset := workload.NewDataset(dcfg)
	tarImage, err := workload.BuildTarImage(dataset, 42)
	if err != nil {
		return nil, err
	}

	systems := []sysBuilder{
		{"CephFS-F", ceph(cal, rados, CephOptions{NumMDS: 1, FUSE: true})},
		{"CephFS-K", ceph(cal, rados, CephOptions{NumMDS: 1})},
		{"ArkFS", arkfs(cal, rados, h.ark(ArkFSOptions{PermCache: true}))},
	}
	times := map[string][2]time.Duration{}
	for _, sys := range systems {
		h.logf("table2: running %s", sys.name)
		var arch, unarch time.Duration
		err := simulate(h.Scale.ArchiveProcs, sys.build, func(env sim.Env, d *Deployment) error {
			ext := workload.NewExternalStore(env, cal.EBSBandwidth)
			// pass runs op on every mount at once and returns how long the
			// slowest took.
			pass := func(op func(m fsapi.FileSystem, cfg workload.ArchiveConfig) error) (time.Duration, error) {
				start := env.Now()
				g := sim.NewGroup(env)
				errs := make([]error, len(d.Mounts))
				for i, m := range d.Mounts {
					g.Go(func() {
						errs[i] = op(m, workload.ArchiveConfig{Root: fmt.Sprintf("/archive-%02d", i), External: ext})
					})
				}
				g.Wait()
				return env.Now() - start, errors.Join(errs...)
			}
			var err error
			if arch, err = pass(func(m fsapi.FileSystem, cfg workload.ArchiveConfig) error {
				_, err := workload.Archive(env, m, dataset, tarImage, cfg)
				return err
			}); err != nil {
				return err
			}
			d.DropAllCaches()
			unarch, err = pass(func(m fsapi.FileSystem, cfg workload.ArchiveConfig) error {
				_, err := workload.Unarchive(env, m, dataset, cfg)
				return err
			})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", sys.name, err)
		}
		times[sys.name] = [2]time.Duration{arch, unarch}
		exp.Cells = append(exp.Cells,
			Cell{System: sys.name, Metric: "Archiving", Value: arch.Seconds(), Unit: "s"},
			Cell{System: sys.name, Metric: "Unarchiving", Value: unarch.Seconds(), Unit: "s"})
	}
	// Speed-up rows, as in the paper's table.
	if ark, ok := times["ArkFS"]; ok {
		for _, ref := range []string{"CephFS-F", "CephFS-K"} {
			if rt, ok := times[ref]; ok {
				exp.Cells = append(exp.Cells,
					Cell{System: "ArkFS speed-up vs " + ref, Metric: "Archiving",
						Value: rt[0].Seconds() / ark[0].Seconds(), Unit: "x"},
					Cell{System: "ArkFS speed-up vs " + ref, Metric: "Unarchiving",
						Value: rt[1].Seconds() / ark[1].Seconds(), Unit: "x"})
			}
		}
	}
	exp.Notes = append(exp.Notes, fmt.Sprintf(
		"%d procs, %d files/dataset (synthetic MS-COCO shape), EBS at 1 GB/s (paper: 32 procs x 41K files)",
		h.Scale.ArchiveProcs, h.Scale.ArchiveFiles))
	return exp, nil
}

// SystemsOf lists the distinct systems in an experiment, first-seen order.
func (e *Experiment) SystemsOf() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range e.Cells {
		if !seen[c.System] {
			seen[c.System] = true
			out = append(out, c.System)
		}
	}
	return out
}

// MetricsOf lists the distinct metrics, first-seen order (series points are
// numeric and sorted).
func (e *Experiment) MetricsOf() []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range e.Cells {
		if !seen[c.Metric] {
			seen[c.Metric] = true
			out = append(out, c.Metric)
		}
	}
	numeric := true
	for _, m := range out {
		if _, err := fmt.Sscanf(m, "%d", new(int)); err != nil {
			numeric = false
			break
		}
	}
	if numeric {
		sort.Slice(out, func(i, j int) bool {
			var a, b int
			fmt.Sscanf(out[i], "%d", &a)
			fmt.Sscanf(out[j], "%d", &b)
			return a < b
		})
	}
	return out
}

// Value fetches one cell.
func (e *Experiment) Value(system, metric string) (Cell, bool) {
	for _, c := range e.Cells {
		if c.System == system && c.Metric == metric {
			return c, true
		}
	}
	return Cell{}, false
}
