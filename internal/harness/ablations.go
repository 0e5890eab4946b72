package harness

import (
	"fmt"
	"time"

	"arkfs/internal/journal"
	"arkfs/internal/objstore"
	"arkfs/internal/workload"
)

// Ablation experiments isolate the design choices the paper credits for
// ArkFS's performance (DESIGN.md §5): per-directory journal parallelism,
// the 1-second compound-transaction window, the read-ahead window, and the
// cache entry size.

// AblationJournal compares journaling configurations under the mdtest-easy
// CREATE workload: the paper's design (per-directory journals, parallel
// commit/checkpoint workers, 1 s compound transactions) against unbatched
// per-operation commits, which serialize per directory behind one PUT in
// flight as the paper's commits do.
func (h *Runner) AblationJournal() (*Experiment, error) {
	exp := &Experiment{ID: "ablate-journal", Title: "Ablation: per-directory journaling (CREATE kIOPS)"}
	rados := objstore.RADOSProfile()
	configs := []struct {
		name string
		jc   journal.Config
	}{
		{"per-dir journals, 1s batching (paper)", journal.Config{}}, // BuildArkFS's default
		{"no batching (commit per op)", journal.Config{
			CommitInterval: time.Nanosecond, CommitWorkers: 4, CheckpointWorkers: 4, CheckpointFanout: 64}},
	}
	for _, cfg := range configs {
		h.logf("ablate-journal: %s", cfg.name)
		// Seed 4000 keeps the client seeds (5000+i) this ablation was measured with.
		o := h.ark(ArkFSOptions{PermCache: true, Journal: cfg.jc, Seed: 4000})
		thr, err := createRate(h.Scale.MdtestProcs, arkfs(h.Cal, rados, o),
			workload.MdtestConfig{FilesPerProc: h.Scale.MdtestFilesPerProc})
		if err != nil {
			return nil, fmt.Errorf("ablate-journal %s: %w", cfg.name, err)
		}
		exp.Cells = append(exp.Cells, Cell{System: cfg.name, Metric: "CREATE", Value: thr / 1000, Unit: "kIOPS"})
	}
	exp.Notes = append(exp.Notes,
		"isolates §III-E: per-directory journals with compound transactions vs per-op commits")
	return exp, nil
}

// AblationReadahead sweeps the max read-ahead window (the Fig. 6(b)
// ArkFS-ra8MB vs ArkFS-ra400MB axis, in more points) on the S3 profile.
func (h *Runner) AblationReadahead() (*Experiment, error) {
	exp := &Experiment{ID: "ablate-readahead", Title: "Ablation: read-ahead window vs sequential READ (GiB/s)"}
	cal := h.Cal
	s3 := objstore.S3Profile()
	for _, ra := range []int64{0, 2 << 20, 8 << 20, 32 << 20, 400 << 20} {
		name := fmt.Sprintf("ra=%dMiB", ra>>20)
		if ra == 0 {
			name = "ra=off"
		}
		h.logf("ablate-readahead: %s", name)
		entries := 40
		if ra > 32<<20 {
			entries = 250
		}
		o := h.ark(ArkFSOptions{PermCache: true, Readahead: ra, CacheEntries: entries})
		if ra == 0 {
			o.Readahead = -1 // forces the "disabled" path (below entry size)
		}
		_, read, err := h.fioRun(name, arkfs(cal, s3, o))
		if err != nil {
			return nil, fmt.Errorf("ablate-readahead %s: %w", name, err)
		}
		exp.Cells = append(exp.Cells, Cell{System: "ArkFS", Metric: name, Value: read.GiBps(), Unit: "GiB/s"})
	}
	exp.Notes = append(exp.Notes, "S3 profile; the window is the only variable (paper §III-D / Fig. 6(b))")
	return exp, nil
}

// AblationLeaseManager compares the single lease manager against a sharded
// cluster (the paper's future work) at the largest client count of the
// scalability sweep — validating the paper's observation that the manager is
// not a bottleneck in the controlled environment.
func (h *Runner) AblationLeaseManager() (*Experiment, error) {
	exp := &Experiment{ID: "ablate-leasemgr", Title: "Ablation: lease manager sharding (CREATE kIOPS)"}
	cal := h.Cal
	rados := objstore.RADOSProfile()
	clients := h.Scale.ScaleClients[len(h.Scale.ScaleClients)-1]
	for _, shards := range []int{1, 4, 16} {
		name := "1 manager (paper)"
		if shards > 1 {
			name = fmt.Sprintf("%d sharded managers", shards)
		}
		h.logf("ablate-leasemgr: %s @ %d clients", name, clients)
		thr, err := h.scaleCreate(arkfs(cal, rados, h.ark(ArkFSOptions{PermCache: true, LeaseShards: shards})), clients)
		if err != nil {
			return nil, fmt.Errorf("ablate-leasemgr %s: %w", name, err)
		}
		exp.Cells = append(exp.Cells, Cell{
			System: name, Metric: fmt.Sprintf("%d clients", clients),
			Value: thr / 1000, Unit: "kIOPS",
		})
	}
	exp.Notes = append(exp.Notes,
		"the paper reports no degradation from the single manager; sharding (its future work) should confirm that")
	return exp, nil
}

// AblationEntrySize sweeps the cache entry / data chunk size on the RADOS
// profile (paper §III-D: 2 MiB default, "large entries risk internal
// fragmentation but suit sequential archiving I/O").
func (h *Runner) AblationEntrySize() (*Experiment, error) {
	exp := &Experiment{ID: "ablate-entrysize", Title: "Ablation: cache entry size vs sequential bandwidth (GiB/s)"}
	cal := h.Cal
	rados := objstore.RADOSProfile()
	for _, es := range []int64{256 << 10, 1 << 20, 2 << 20, 4 << 20} {
		name := fmt.Sprintf("entry=%dKiB", es>>10)
		h.logf("ablate-entrysize: %s", name)
		entries := int((80 << 20) / es) // hold the cache byte budget constant
		write, read, err := h.fioRun(name, arkfs(cal, rados, h.ark(ArkFSOptions{
			PermCache: true, ChunkSize: es, Readahead: 8 << 20, CacheEntries: entries,
		})))
		if err != nil {
			return nil, fmt.Errorf("ablate-entrysize %s: %w", name, err)
		}
		exp.Cells = append(exp.Cells,
			Cell{System: "WRITE", Metric: name, Value: write.GiBps(), Unit: "GiB/s"},
			Cell{System: "READ", Metric: name, Value: read.GiBps(), Unit: "GiB/s"})
	}
	exp.Notes = append(exp.Notes, "RADOS profile; chunk size = cache entry size, cache byte budget constant")
	return exp, nil
}
