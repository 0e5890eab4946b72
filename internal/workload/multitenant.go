package workload

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// zipfS is the skew of the burst's directory popularity: a few hot
// directories absorb most traffic, the tail stays warm.
const zipfS = 1.2

// BurstConfig parameterizes MultiTenantBurst: a paced multi-tenant burst
// against directories led by a dedicated service mount, with an optional set
// of hostile processes offering several times their admitted rate. It is the
// workload half of the overload scenarios: the harness supplies a deployment
// with (or without) admission control and asserts on the per-process results.
type BurstConfig struct {
	// OpsPerProc is how many creates each polite process submits.
	OpsPerProc int
	// Interval is the polite think time between submissions; a polite
	// process offers 1/Interval ops per second. Default 5ms.
	Interval time.Duration
	// Dirs is the shared directory pool under BurstRoot the zipfian
	// popularity draws from; Seed feeds the per-process draws.
	Dirs int
	Seed int64
	// HostileProcs marks the last N non-service mounts as hostile: each runs
	// HostileStreams concurrent submission loops (default 8) at the polite
	// Interval, each submitting OpsPerProc creates, so one hostile tenant
	// offers HostileStreams× a polite tenant's load over the same window.
	HostileProcs   int
	HostileStreams int
}

func (c *BurstConfig) fill() {
	if c.OpsPerProc <= 0 {
		c.OpsPerProc = 50
	}
	if c.Interval <= 0 {
		c.Interval = 5 * time.Millisecond
	}
	if c.Dirs <= 0 {
		c.Dirs = 4
	}
	if c.HostileStreams <= 0 {
		c.HostileStreams = 8
	}
}

// BurstRoot is the directory MultiTenantBurst's pool lives under.
const BurstRoot = "/overload"

// BurstResult is one process's outcome from MultiTenantBurst.
type BurstResult struct {
	Hostile bool
	// Attempted counts submitted creates; each lands in exactly one of
	// Acked (the create succeeded — the op was acknowledged), Pushback
	// (typed retry-after refusal surfaced after the client's retries),
	// Timeout, or OtherErr.
	Attempted, Acked, Pushback, Timeout, OtherErr int
	// Elapsed is the process's busy window on the virtual clock.
	Elapsed time.Duration
	// AckedPaths lists every acknowledged create, for oracle verification.
	AckedPaths []string
	// Latencies holds one per-submission latency (including internal
	// retries), in submission order.
	Latencies []time.Duration
}

// P99 returns the process's 99th-percentile submission latency.
func (r *BurstResult) P99() time.Duration {
	if len(r.Latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), r.Latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99)/100]
}

// MultiTenantBurst drives the burst. mounts[0] is the service mount: it owns
// (and leads) the directory pool and issues no load, so every tenant op is a
// forwarded RPC that crosses the leader's admission gate. mounts[1:] are one
// process per tenant; the last cfg.HostileProcs of them are hostile. All
// randomness is precomputed from cfg.Seed, so a virtual-clock run is
// deterministic end to end.
func MultiTenantBurst(env sim.Env, mounts []fsapi.FileSystem, cfg BurstConfig) ([]BurstResult, error) {
	ctx := context.Background()
	cfg.fill()
	if err := setupTree(ctx, mounts[0], BurstRoot, cfg.Dirs); err != nil {
		return nil, err
	}
	// Pin leadership of every pool directory on the service mount: the first
	// operation inside a directory acquires its lease, and the mkdirs above
	// only claimed the parent.
	for d := 0; d < cfg.Dirs; d++ {
		p := fmt.Sprintf("%s/p%03d/.lead", BurstRoot, d)
		f, err := mounts[0].Open(ctx, p, types.OWronly|types.OCreate|types.OExcl, 0644)
		if err != nil {
			return nil, fmt.Errorf("workload: pin leader %s: %w", p, err)
		}
		_ = f.Close()
	}

	procs := len(mounts) - 1
	draws := make([][]int, procs)
	for p := 0; p < procs; p++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*7919))
		z := rand.NewZipf(rng, zipfS, 1, uint64(cfg.Dirs-1))
		n := cfg.OpsPerProc
		if p >= procs-cfg.HostileProcs {
			n = cfg.OpsPerProc * cfg.HostileStreams // upper bound per stream set
		}
		draws[p] = make([]int, n)
		for i := range draws[p] {
			draws[p][i] = int(z.Uint64())
		}
	}

	results := make([]BurstResult, procs)
	var mu sync.Mutex
	start := env.Now()
	wg := sim.NewGroup(env)
	gidx := 0 // global stream index, for the de-phasing offsets below
	for p := 0; p < procs; p++ {
		proc, m := p, mounts[1+p]
		hostile := proc >= procs-cfg.HostileProcs
		results[proc].Hostile = hostile
		streams := 1
		if hostile {
			streams = cfg.HostileStreams
		}
		for s := 0; s < streams; s++ {
			stream := s
			// Distinct phase offsets keep streams from submitting at the
			// same virtual instant: same-instant arrivals race for queue
			// positions on the real scheduler, which is the one ordering a
			// virtual-clock run cannot make reproducible.
			phase := time.Duration(gidx+1) * 131 * time.Microsecond
			gidx++
			wg.Go(func() {
				local := BurstResult{}
				env.Sleep(phase)
				for i := 0; i < cfg.OpsPerProc; i++ {
					env.Sleep(cfg.Interval)
					dir := draws[proc][(stream*cfg.OpsPerProc+i)%len(draws[proc])]
					path := fmt.Sprintf("%s/p%03d/t%02d.s%d.%05d", BurstRoot, dir, proc, stream, i)
					t0 := env.Now()
					f, err := m.Open(ctx, path, types.OWronly|types.OCreate|types.OExcl, 0644)
					if err == nil {
						_ = f.Close()
					}
					local.Attempted++
					local.Latencies = append(local.Latencies, env.Now()-t0)
					switch {
					case err == nil:
						local.Acked++
						local.AckedPaths = append(local.AckedPaths, path)
					case errors.Is(err, types.ErrAgain):
						local.Pushback++
					case errors.Is(err, types.ErrTimedOut) || errors.Is(err, context.DeadlineExceeded):
						local.Timeout++
					default:
						local.OtherErr++
					}
				}
				elapsed := env.Now() - start
				mu.Lock()
				r := &results[proc]
				r.Attempted += local.Attempted
				r.Acked += local.Acked
				r.Pushback += local.Pushback
				r.Timeout += local.Timeout
				r.OtherErr += local.OtherErr
				r.AckedPaths = append(r.AckedPaths, local.AckedPaths...)
				r.Latencies = append(r.Latencies, local.Latencies...)
				if elapsed > r.Elapsed {
					r.Elapsed = elapsed
				}
				mu.Unlock()
			})
		}
	}
	wg.Wait()
	// Merge order of a hostile proc's streams is scheduler-dependent only in
	// wall order, not in totals; sort the path lists so results are stable.
	for i := range results {
		sort.Strings(results[i].AckedPaths)
		sort.Slice(results[i].Latencies, func(a, b int) bool {
			return results[i].Latencies[a] < results[i].Latencies[b]
		})
	}
	return results, nil
}
