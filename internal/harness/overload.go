// Overload harness: seeded, deterministic multi-tenant overload runs against
// a full ArkFS deployment under the virtual clock.
//
// A run deploys one service client that leads a zipfian directory pool plus
// one client per tenant, then drives a paced burst where one hostile tenant
// offers several times its admitted rate while the polite tenants stay under
// theirs. The oracle asserts the overload-protection contract: no
// acknowledged op is ever lost, well-behaved tenants keep most of their
// isolated-run goodput, the hostile tenant is answered with typed retry-after
// pushback rather than timeouts (hints its client honors inside the op budget
// count: they throttle it just the same), and once the burst ends the system
// converges (new polite work is admitted again). Because all timing flows
// through sim.VirtEnv and every random draw is precomputed from the seed, a
// replay of the same seed reproduces the run: OverloadReport.Fingerprint() is
// stable, including every qos.* counter in the metrics registry.
package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/workload"
)

// OverloadConfig parameterizes one seeded overload scenario. The zero value
// of any field is replaced by the default noted on it.
type OverloadConfig struct {
	Seed         int64
	Tenants      int     // polite tenants (default 3)
	OpsPerTenant int     // submissions per polite tenant (default 60)
	Dirs         int     // zipfian shared directory pool (default 4)
	Rate         float64 // per-tenant admitted ops/sec at each leader (default 400)
	Burst        float64 // token-bucket depth (default 8)
	// HostileStreams is the hostile tenant's concurrency: it offers
	// HostileStreams× a polite tenant's load (default 8 — with polite
	// pacing at half the admitted charge rate, ~4× its own admitted rate).
	HostileStreams int
	OpBudget       int // per-operation retry budget (default 8)
}

func (c *OverloadConfig) fill() {
	if c.Tenants <= 0 {
		c.Tenants = 3
	}
	if c.OpsPerTenant <= 0 {
		c.OpsPerTenant = 60
	}
	if c.Dirs <= 0 {
		c.Dirs = 4
	}
	if c.Rate <= 0 {
		c.Rate = 400
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.HostileStreams <= 0 {
		c.HostileStreams = 8
	}
	if c.OpBudget == 0 {
		c.OpBudget = 8
	}
}

// OverloadReport is the outcome of one overload scenario: the contended run's
// per-tenant results, the polite-only isolated baseline they are judged
// against, and the oracle's verdicts.
type OverloadReport struct {
	Seed int64
	// Isolated holds the polite tenants' results from the baseline pass
	// (same seed, same pacing, no hostile tenant).
	Isolated []workload.BurstResult
	// Contended holds the contended pass's results; the last entry is the
	// hostile tenant.
	Contended []workload.BurstResult
	// Lost lists acknowledged creates the verifier could not find — any
	// entry is a violated durability promise.
	Lost []string
	// HostileRetries counts the retries the hostile tenant's client spent
	// inside its op budgets in the contended pass: retry-after hints it
	// honored, which throttle it but never show in BurstResult.Pushback.
	HostileRetries int64
	// Errors are assertion failures; an empty slice is a pass.
	Errors []string
	// Metrics is the contended pass's deterministic metrics fingerprint
	// (every qos.* shed/pushback/breaker counter folds in).
	Metrics string
}

// Failed reports whether the run violated the overload-protection contract.
func (r *OverloadReport) Failed() bool { return len(r.Errors) > 0 }

// Goodput returns acked operations per second of virtual time for one result.
func Goodput(b workload.BurstResult) float64 {
	if b.Elapsed <= 0 {
		return 0
	}
	return float64(b.Acked) / b.Elapsed.Seconds()
}

// Fingerprint identifies the scenario outcome: both passes' per-tenant
// tallies plus the contended pass's metrics fingerprint. Two runs of the same
// seed and config must produce identical fingerprints.
func (r *OverloadReport) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload seed=%d\n", r.Seed)
	dump := func(name string, rs []workload.BurstResult) {
		for i, t := range rs {
			fmt.Fprintf(&b, "%s t%02d hostile=%v attempted=%d acked=%d pushback=%d timeout=%d other=%d\n",
				name, i, t.Hostile, t.Attempted, t.Acked, t.Pushback, t.Timeout, t.OtherErr)
		}
	}
	dump("isolated", r.Isolated)
	dump("contended", r.Contended)
	b.WriteString(r.Metrics)
	return b.String()
}

// Summary renders the report for humans; failures include the seed so the
// scenario can be replayed exactly (arkbench -chaos -overload -seed N).
func (r *OverloadReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "overload seed=%d: %d polite tenant(s) + 1 hostile\n", r.Seed, len(r.Isolated))
	for i, t := range r.Contended {
		role := "polite "
		if t.Hostile {
			role = "hostile"
		}
		fmt.Fprintf(&b, "  %s t%02d: %4d attempted, %4d acked, %4d pushback, %d timeout, %d other, p99=%v",
			role, i, t.Attempted, t.Acked, t.Pushback, t.Timeout, t.OtherErr, t.P99())
		if t.Hostile {
			fmt.Fprintf(&b, ", %d hint(s) honored", r.HostileRetries)
		}
		if !t.Hostile && i < len(r.Isolated) {
			fmt.Fprintf(&b, ", goodput %.0f/s (isolated %.0f/s)", Goodput(t), Goodput(r.Isolated[i]))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "acked-op loss: %d\n", len(r.Lost))
	if r.Failed() {
		fmt.Fprintf(&b, "FAILED (replay with seed %d):\n", r.Seed)
		for _, e := range r.Errors {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	} else {
		b.WriteString("PASS\n")
	}
	return b.String()
}

// overloadPass is one deployment + burst execution under its own virtual
// clock: the isolated baseline (hostile=false) or the contended run.
type overloadPass struct {
	results  []workload.BurstResult
	retries  int64 // the hostile tenant's, from the per-tenant table
	lost     []string
	convErrs []string
	metrics  string
	err      error
}

func runOverloadPass(cfg OverloadConfig, hostile bool) *overloadPass {
	p := &overloadPass{}
	reg := obs.NewRegistry()
	n := 1 + cfg.Tenants // service mount + one per polite tenant
	if hostile {
		n++
	}
	// PermCache on (the production default): without it every create
	// charges its path-resolution lookups against the same admission
	// bucket as the create itself, and even polite pacing overdraws.
	o := ArkFSOptions{
		Obs: reg, Seed: cfg.Seed, OpBudget: cfg.OpBudget, PermCache: true,
		QoSRate: cfg.Rate, QoSBurst: cfg.Burst, Brownout: true, Breaker: true,
		MaxInbox: 256, ShedWait: 2 * time.Millisecond, LeaseQoSRate: 200, LeaseQoSBurst: 16,
	}
	p.err = simulate(n, arkfs(DefaultCalibration(), objstore.TestProfile(), o), func(env sim.Env, d *Deployment) error {
		// Rate is admission charges per second, and one logical create costs
		// about three charged RPCs at the leader (create, open, write-lease).
		// Polite pacing of Rate/6 ops therefore offers half the admitted
		// charge rate — comfortably entitled, so any polite goodput lost
		// under contention is collateral damage from the hostile flood, which
		// is exactly what the protection must bound. The hostile tenant's 8
		// concurrent streams at the same pacing offer ~4x its admitted rate.
		interval := time.Duration(6 * float64(time.Second) / cfg.Rate)
		bc := workload.BurstConfig{
			OpsPerProc:     cfg.OpsPerTenant,
			Interval:       interval,
			Dirs:           cfg.Dirs,
			Seed:           cfg.Seed,
			HostileStreams: cfg.HostileStreams,
		}
		if hostile {
			bc.HostileProcs = 1
		}
		var err error
		if p.results, err = workload.MultiTenantBurst(env, d.Mounts, bc); err != nil {
			return err
		}
		if hostile {
			p.retries = reg.Tenants().Snapshot()[d.Ark[n-1].Tenant()].Retries
		}
		env.Sleep(250 * time.Millisecond) // pressure drains, buckets refill

		// Oracle: every acknowledged create (hostile ones included) must
		// still exist, observed through a polite mount so the checks
		// themselves cross the admission gate after the burst.
		ctx := context.Background()
		verifier := d.Mounts[1]
		for _, t := range p.results {
			for _, path := range t.AckedPaths {
				if _, err := verifier.Stat(ctx, path); err != nil {
					if errors.Is(err, types.ErrNotExist) {
						p.lost = append(p.lost, path)
					} else {
						p.convErrs = append(p.convErrs, fmt.Sprintf("verify stat %s: %v", path, err))
					}
				}
			}
		}
		// Convergence: with the burst over, fresh polite work at the polite
		// pace must be admitted again on every tenant.
		for t := 0; t < cfg.Tenants; t++ {
			for dir := 0; dir < cfg.Dirs; dir++ {
				env.Sleep(interval)
				path := fmt.Sprintf("/overload/p%03d/conv-t%02d", dir, t)
				f, err := fsapi.Create(ctx, d.Mounts[1+t], path, 0644)
				if err != nil {
					p.convErrs = append(p.convErrs, fmt.Sprintf("convergence create %s: %v", path, err))
					continue
				}
				_ = f.Close()
			}
		}
		p.metrics = reg.Snapshot().Fingerprint()
		return nil
	})
	return p
}

// RunOverload executes one seeded overload scenario — an isolated polite-only
// baseline pass followed by the contended pass with the hostile tenant — and
// returns its report. Invariant violations are collected in Errors, never
// panicked.
func RunOverload(cfg OverloadConfig) *OverloadReport {
	cfg.fill()
	rep := &OverloadReport{Seed: cfg.Seed}
	iso := runOverloadPass(cfg, false)
	if iso.err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("isolated pass: %v", iso.err))
		return rep
	}
	con := runOverloadPass(cfg, true)
	if con.err != nil {
		rep.Errors = append(rep.Errors, fmt.Sprintf("contended pass: %v", con.err))
		return rep
	}
	rep.Isolated, rep.Contended = iso.results, con.results
	rep.Lost = con.lost
	rep.Metrics = con.metrics
	rep.HostileRetries = con.retries
	for _, path := range con.lost {
		rep.Errors = append(rep.Errors, fmt.Sprintf("lost acknowledged op: %s", path))
	}
	for _, e := range con.convErrs {
		rep.Errors = append(rep.Errors, e)
	}
	var hostileSeen bool
	for i, t := range rep.Contended {
		if t.Hostile {
			hostileSeen = true
			if t.Pushback == 0 && rep.HostileRetries == 0 {
				rep.Errors = append(rep.Errors, "hostile tenant saw no typed retry-after pushback: none surfaced, none honored")
			}
			if t.Timeout > 0 {
				rep.Errors = append(rep.Errors, fmt.Sprintf("hostile tenant hit %d timeout(s); overload must answer with pushback, not silence", t.Timeout))
			}
			continue
		}
		if t.Timeout > 0 || t.OtherErr > 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf("polite tenant %d: %d timeout(s), %d hard error(s) under contention", i, t.Timeout, t.OtherErr))
		}
		if i >= len(rep.Isolated) {
			continue
		}
		isoGP, conGP := Goodput(rep.Isolated[i]), Goodput(t)
		if conGP < 0.8*isoGP {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"polite tenant %d goodput collapsed under contention: %.1f/s vs %.1f/s isolated (< 80%%)",
				i, conGP, isoGP))
		}
	}
	if !hostileSeen {
		rep.Errors = append(rep.Errors, "contended pass ran without a hostile tenant")
	}
	return rep
}
