package harness

import (
	"fmt"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/workload"
)

// StatsConfig parameterizes an instrumented stats run. Zero fields take the
// defaults noted on them.
type StatsConfig struct {
	Clients      int // default 4
	FilesPerProc int // default 200
	SharedDirs   int // default 4 (mdtest-hard layout mixes in forwarded ops)
	// Flaky injects store failures with this probability (retried), so the
	// objstore.retries and faultstore.* series are non-zero in the output.
	Flaky     float64
	FlakySeed int64
	// Obs, when non-nil, is the registry the run records into — callers that
	// serve live debug endpoints pass theirs. Nil allocates a private one.
	Obs *obs.Registry
	// Tenants > 0 colors the clients with that many tenant IDs (round-robin)
	// and appends the zipfian multi-tenant workload, so the snapshot carries a
	// populated per-tenant table. Zero keeps one tenant per client and skips
	// that phase.
	Tenants int
	// TenantSeed feeds the multi-tenant workload's zipfian draws.
	TenantSeed int64
}

func (c *StatsConfig) fill() {
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.FilesPerProc <= 0 {
		c.FilesPerProc = 200
	}
	if c.SharedDirs <= 0 {
		c.SharedDirs = 4
	}
}

// RunStats deploys an instrumented ArkFS cluster under the virtual clock,
// drives mdtest-easy plus mdtest-hard (the hard layout forces forwarded
// metadata ops and data I/O through the cache), and returns the
// deployment-wide metrics snapshot. Deterministic: the same config yields a
// byte-identical Fingerprint().
func RunStats(cfg StatsConfig) (obs.Snapshot, error) {
	cfg.fill()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	cal := DefaultCalibration()
	o := ArkFSOptions{PermCache: true, Obs: reg, Tenants: cfg.Tenants}
	if cfg.Flaky > 0 {
		o.FlakyProb, o.FlakySeed = cfg.Flaky, cfg.FlakySeed
		pol := objstore.DefaultRetryPolicy()
		o.Retry = &pol
	}
	err := simulate(cfg.Clients, arkfs(cal, objstore.RADOSProfile(), o), func(env sim.Env, d *Deployment) error {
		if _, err := workload.MdtestEasy(env, d.Mounts, workload.MdtestConfig{
			FilesPerProc: cfg.FilesPerProc, Root: "/stats-easy",
		}); err != nil {
			return fmt.Errorf("mdtest-easy: %w", err)
		}
		if _, err := workload.MdtestHard(env, d.Mounts, workload.MdtestConfig{
			FilesPerProc: cfg.FilesPerProc / 2, SharedDirs: cfg.SharedDirs, Root: "/stats-hard",
		}); err != nil {
			return fmt.Errorf("mdtest-hard: %w", err)
		}
		if cfg.Tenants > 0 {
			if _, err := workload.MultiTenant(env, d.Mounts, workload.MultiTenantConfig{
				OpsPerProc: cfg.FilesPerProc / 2, Dirs: cfg.SharedDirs,
				Seed: cfg.TenantSeed, Root: "/stats-tenants",
			}); err != nil {
				return fmt.Errorf("multitenant: %w", err)
			}
		}
		// Let background lease/journal work quiesce so gauges settle.
		env.Sleep(2 * cal.LeasePeriod)
		return nil
	})
	if err != nil {
		return obs.Snapshot{}, fmt.Errorf("stats: %w", err)
	}
	return reg.Snapshot(), nil
}
