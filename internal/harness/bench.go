package harness

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"arkfs/internal/core"
	"arkfs/internal/journal"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/workload"
)

// BenchSchema identifies the BenchReport JSON layout. Bump the suffix on any
// field change: downstream tooling (CI artifact diffing, EXPERIMENTS.md
// tables) keys on it. v2 added the sharded lease-cluster scalability sweep;
// v3 added the tenant-isolation (overload protection on/off) comparison; v4
// added the directory-takeover curve; v5 dropped the isolation comparison,
// whose two sides agreed on everything but the pushback count.
const BenchSchema = "arkfs-bench/v5"

// BenchConfig parameterizes one benchmark trajectory. The zero value runs the
// committed BENCH_seed.json configuration.
type BenchConfig struct {
	// Seed offsets every client's deterministic ID stream; it is recorded in
	// the report so a run can be replayed bit-exactly.
	Seed int64
	// Clients is the scalability sweep (default 1,2,4,8).
	Clients []int
	// FilesPerProc is the mdtest file count per process (default 200).
	FilesPerProc int
	// Procs is the mdtest/fio process count (default 4).
	Procs int
	// FioFileSize is the per-process sequential file size (default 32 MiB).
	FioFileSize int64
	// ShardedClients is the elastic lease-cluster sweep (default
	// 512,1024,2048,4096): each count runs against a Shards-member lease
	// ring, next to a single-manager point at ShardedClients[0] that anchors
	// the comparison. Negative Shards disables the sweep.
	ShardedClients []int
	// Shards is the lease-ring size for the sharded sweep (default 4).
	Shards int
	// ShardedDirs and ShardedFilesPerDir shape the per-client lease churn in
	// the sharded sweep (defaults 16 and 1): each client works through
	// ShardedDirs fresh directories — one lease acquire each — creating
	// ShardedFilesPerDir files per directory. Acquire-heavy on purpose: the
	// lease-acquire wave, not per-client create work, is the resource under
	// test.
	ShardedDirs        int
	ShardedFilesPerDir int
	// TakeoverEntries are the directory sizes of the takeover curve (default
	// 100, 1000, 10000).
	TakeoverEntries []int
	// Obs, when non-nil, is the registry the instrumented mdtest phase
	// records into (live debug endpoints watch it mid-run). The fingerprint
	// still reflects only this run: it is computed from a snapshot taken
	// before any other phase reuses the registry.
	Obs *obs.Registry
}

func (c *BenchConfig) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 2, 4, 8}
	}
	if c.FilesPerProc <= 0 {
		c.FilesPerProc = 200
	}
	if c.Procs <= 0 {
		c.Procs = 4
	}
	if c.FioFileSize <= 0 {
		c.FioFileSize = 32 << 20
	}
	if len(c.ShardedClients) == 0 {
		c.ShardedClients = []int{512, 1024, 2048, 4096}
	}
	if c.Shards == 0 {
		c.Shards = 4
	}
	if c.ShardedDirs <= 0 {
		c.ShardedDirs = 16
	}
	if c.ShardedFilesPerDir <= 0 {
		c.ShardedFilesPerDir = 1
	}
	if len(c.TakeoverEntries) == 0 {
		c.TakeoverEntries = []int{100, 1000, 10000}
	}
}

// BenchPhase is one mdtest phase in the report. Elapsed is virtual-clock
// nanoseconds: no wall time leaks into the schema.
type BenchPhase struct {
	Name      string  `json:"name"`
	Ops       int     `json:"ops"`
	Errors    int     `json:"errors"`
	ElapsedNS int64   `json:"elapsed_ns"`
	OpsPerSec float64 `json:"ops_per_sec"`
}

// BenchBandwidth is one fio pass.
type BenchBandwidth struct {
	Bytes     int64   `json:"bytes"`
	ElapsedNS int64   `json:"elapsed_ns"`
	GiBps     float64 `json:"gibps"`
}

// BenchScalePoint is one client count in the scalability sweep.
type BenchScalePoint struct {
	Clients      int     `json:"clients"`
	CreatePerSec float64 `json:"create_per_sec"`
}

// BenchShardPoint is one point in the sharded lease-cluster sweep: CREATE
// throughput at a client count against a Shards-member lease ring (Shards 1
// is the single-manager anchor).
type BenchShardPoint struct {
	Clients      int     `json:"clients"`
	Shards       int     `json:"shards"`
	CreatePerSec float64 `json:"create_per_sec"`
}

// BenchTakeover is one point of the directory-takeover curve: the virtual
// time of a fresh client's first stat into a directory of Entries files on
// the Store profile, which is a lease acquire plus the load of the metatable
// (ROADMAP item 5). The previous leader either released the directory cleanly
// or (Crashed) died behind a FlushAll, so the lease is a recovery grant and
// the journal scan comes first.
type BenchTakeover struct {
	Store     string `json:"store"`
	Entries   int    `json:"entries"`
	Crashed   bool   `json:"crashed"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// BenchReport is the stable -bench-json output. Every number derives from the
// virtual clock and seeded IDs, so the same (schema, seed, config) yields a
// byte-identical report.
type BenchReport struct {
	Schema string `json:"schema"`
	Seed   int64  `json:"seed"`
	Config struct {
		Clients            []int `json:"clients"`
		FilesPerProc       int   `json:"files_per_proc"`
		Procs              int   `json:"procs"`
		FioFileSize        int64 `json:"fio_file_size"`
		ShardedClients     []int `json:"sharded_clients"`
		Shards             int   `json:"shards"`
		ShardedDirs        int   `json:"sharded_dirs"`
		ShardedFilesPerDir int   `json:"sharded_files_per_dir"`
	} `json:"config"`
	MdtestEasy  []BenchPhase      `json:"mdtest_easy"`
	MdtestHard  []BenchPhase      `json:"mdtest_hard"`
	FioWrite    BenchBandwidth    `json:"fio_write"`
	FioRead     BenchBandwidth    `json:"fio_read"`
	Scalability []BenchScalePoint `json:"scalability"`
	// ShardedScalability is the elastic lease-cluster sweep: a single-manager
	// and a multi-shard point per client count.
	ShardedScalability []BenchShardPoint `json:"sharded_scalability"`
	// Takeover is what a leadership change costs, against directory size.
	Takeover []BenchTakeover `json:"takeover"`
	// MetricsFingerprint is the instrumented mdtest deployment's
	// obs.Snapshot.Fingerprint() — the full sorted counter list.
	MetricsFingerprint string `json:"metrics_fingerprint"`
	// MetricsSHA256 is sha256(MetricsFingerprint), the short handle CI and
	// humans compare.
	MetricsSHA256 string `json:"metrics_sha256"`
}

// JSON renders the report with a trailing newline, suitable for committing.
func (r *BenchReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err) // no unmarshalable fields in BenchReport
	}
	return append(b, '\n')
}

func benchPhases(ps []workload.PhaseResult) []BenchPhase {
	out := make([]BenchPhase, 0, len(ps))
	for _, p := range ps {
		out = append(out, BenchPhase{
			Name: p.Name, Ops: p.Ops, Errors: p.Errors,
			ElapsedNS: p.Elapsed.Nanoseconds(), OpsPerSec: p.OpsPerSec(),
		})
	}
	return out
}

func benchBW(r workload.BandwidthResult) BenchBandwidth {
	return BenchBandwidth{Bytes: r.Bytes, ElapsedNS: r.Elapsed.Nanoseconds(), GiBps: r.GiBps()}
}

// RunBench runs the seeded benchmark trajectory: instrumented mdtest-easy and
// mdtest-hard (whose metrics registry yields the fingerprint), an fio
// bandwidth pass, and a scalability sweep — everything under the virtual
// clock. One invocation regenerates BENCH_<seed>.json.
func RunBench(cfg BenchConfig) (*BenchReport, error) {
	cfg.fill()
	rep := &BenchReport{Schema: BenchSchema, Seed: cfg.Seed}
	rep.Config.Clients = cfg.Clients
	rep.Config.FilesPerProc = cfg.FilesPerProc
	rep.Config.Procs = cfg.Procs
	rep.Config.FioFileSize = cfg.FioFileSize
	rep.Config.ShardedClients = cfg.ShardedClients
	rep.Config.Shards = cfg.Shards
	rep.Config.ShardedDirs = cfg.ShardedDirs
	rep.Config.ShardedFilesPerDir = cfg.ShardedFilesPerDir

	cal := DefaultCalibration()
	rados := objstore.RADOSProfile()
	build := func(reg *obs.Registry) builder {
		return arkfs(cal, rados, ArkFSOptions{PermCache: true, Obs: reg, Seed: cfg.Seed})
	}

	// Phase 1: instrumented mdtest. The registry from this deployment is the
	// report's fingerprint (a caller-supplied registry must be fresh, or its
	// prior counts fold into the fingerprint).
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	err := simulate(cfg.Procs, build(reg), func(env sim.Env, d *Deployment) error {
		easy, err := workload.MdtestEasy(env, d.Mounts, workload.MdtestConfig{
			FilesPerProc: cfg.FilesPerProc, Root: "/bench-easy",
		})
		if err != nil {
			return fmt.Errorf("mdtest-easy: %w", err)
		}
		rep.MdtestEasy = benchPhases(easy)
		hard, err := workload.MdtestHard(env, d.Mounts, workload.MdtestConfig{
			FilesPerProc: cfg.FilesPerProc / 2, SharedDirs: cfg.Procs, Root: "/bench-hard",
		})
		if err != nil {
			return fmt.Errorf("mdtest-hard: %w", err)
		}
		rep.MdtestHard = benchPhases(hard)
		env.Sleep(2 * cal.LeasePeriod) // let background work settle the gauges
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	fp := reg.Snapshot().Fingerprint()
	rep.MetricsFingerprint = fp
	rep.MetricsSHA256 = fmt.Sprintf("%x", sha256.Sum256([]byte(fp)))

	// Phase 2: fio bandwidth (uninstrumented: the fingerprint covers the
	// metadata trajectory; fio timing is its own result).
	w, r, err := fio(cfg.Procs, build(nil), workload.FioConfig{FileSize: cfg.FioFileSize, ReqSize: 128 << 10})
	if err != nil {
		return nil, fmt.Errorf("bench: fio: %w", err)
	}
	rep.FioWrite, rep.FioRead = benchBW(w), benchBW(r)

	// Phase 3: scalability sweep (CREATE throughput per client count).
	for _, n := range cfg.Clients {
		thr, err := createRate(n, build(nil), workload.MdtestConfig{FilesPerProc: 50, Root: "/bench-scale"})
		if err != nil {
			return nil, fmt.Errorf("bench: scale %d: %w", n, err)
		}
		rep.Scalability = append(rep.Scalability, BenchScalePoint{Clients: n, CreatePerSec: thr})
	}

	// Phase 4: sharded lease-cluster sweep (lease churn, not mdtest: every
	// fresh directory is a lease acquire, so the manager tier is the
	// contended resource). One single-manager anchor at the smallest client
	// count, then the elastic-ring points.
	if cfg.Shards > 1 {
		for _, n := range cfg.ShardedClients {
			for _, shards := range []int{1, cfg.Shards} {
				var thr float64
				err := simulate(n, arkfs(cal, rados, ArkFSOptions{PermCache: true, Seed: cfg.Seed, LeaseShards: shards}),
					func(env sim.Env, d *Deployment) error {
						res, err := workload.LeaseChurn(env, d.Mounts, workload.LeaseChurnConfig{
							Dirs: cfg.ShardedDirs, FilesPerDir: cfg.ShardedFilesPerDir,
							Root: "/bench-shard",
						})
						thr = res.OpsPerSec()
						return err
					})
				if err != nil {
					return nil, fmt.Errorf("bench: sharded %d/%d: %w", n, shards, err)
				}
				rep.ShardedScalability = append(rep.ShardedScalability,
					BenchShardPoint{Clients: n, Shards: shards, CreatePerSec: thr})
			}
		}
	}

	// Phase 5: the takeover curve at the program's default fan-out, and one
	// directory (the middle size) taken over after a crash.
	var points []BenchTakeover
	for _, store := range []string{"rados", "s3"} {
		for _, n := range cfg.TakeoverEntries {
			points = append(points, BenchTakeover{Store: store, Entries: n})
		}
	}
	points = append(points, BenchTakeover{Store: "rados", Crashed: true,
		Entries: cfg.TakeoverEntries[len(cfg.TakeoverEntries)/2]})
	for _, p := range points {
		took, err := TakeoverPoint(cal, p, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: takeover %+v: %w", p, err)
		}
		p.ElapsedNS = took.Nanoseconds()
		rep.Takeover = append(rep.Takeover, p)
	}
	return rep, nil
}

// TakeoverPoint measures one point of the takeover curve with the journal's
// defaults and the given CheckpointFanout (0: the default; 1 is one GET after
// another, the curve before the load fanned out).
func TakeoverPoint(cal Calibration, p BenchTakeover, fanout int) (took time.Duration, err error) {
	prof := objstore.RADOSProfile()
	if p.Store == "s3" {
		prof = objstore.S3Profile()
	}
	jc := journal.DefaultConfig()
	jc.CheckpointFanout = fanout
	// Seed 4000 keeps the client seeds (5000+i) this curve was measured with.
	o := ArkFSOptions{PermCache: true, Journal: jc, Seed: 4000}
	err = simulate(2, arkfs(cal, prof, o), func(env sim.Env, d *Deployment) (err error) {
		ctx := context.Background()
		old, fresh := d.Ark[0], d.Ark[1]
		if err = old.Mkdir(ctx, "/t", 0o777); err != nil {
			return
		}
		for i := 0; i < p.Entries && err == nil; i++ {
			var f *core.File
			if f, err = old.Create(ctx, fmt.Sprintf("/t/f%06d", i), 0o644); err == nil {
				err = f.Close()
			}
		}
		var dir *types.Inode
		if err == nil {
			dir, err = old.Stat(ctx, "/t")
		}
		if err != nil {
			return
		}
		if p.Crashed {
			if err = old.FlushAll(ctx); err != nil {
				return
			}
			old.Crash()
			env.Sleep(2*cal.LeasePeriod + cal.LeasePeriod/2) // the lease and its grace run out
		} else if err = old.ReleaseDir(dir.Ino); err != nil {
			return
		}
		// Resolving /t is not part of the reading (after a crash it takes the
		// root over as well): the clock covers the lease and the load of /t.
		if _, err = fresh.Stat(ctx, "/t"); err != nil {
			return
		}
		t0 := env.Now()
		_, err = fresh.Stat(ctx, "/t/f000000")
		took = env.Now() - t0
		return err
	})
	return took, err
}
