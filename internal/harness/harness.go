// Package harness builds complete simulated deployments of ArkFS and every
// baseline, runs the paper's workloads against them under the virtual clock,
// and renders the tables/series of each figure in the evaluation (§IV).
package harness

import (
	"fmt"
	"time"

	"arkfs/internal/baseline/cephsim"
	"arkfs/internal/baseline/goofyssim"
	"arkfs/internal/baseline/marfssim"
	"arkfs/internal/baseline/s3fssim"
	"arkfs/internal/cache"
	"arkfs/internal/core"
	"arkfs/internal/fsapi"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Calibration holds the simulation cost constants that stand in for the
// paper's AWS testbed (Table I). They were tuned so the figures' shapes and
// headline ratios land near the paper's; EXPERIMENTS.md records the results.
type Calibration struct {
	// ClientNet is the client↔client / client↔lease-manager / client↔MDS
	// link (c5n 50 Gbit instances: low RTT, high bandwidth).
	ClientNet sim.NetModel
	// FUSEOverhead per application-visible request on FUSE mounts.
	FUSEOverhead time.Duration
	// ArkMetaOp is ArkFS's local metadata-table operation cost (hashing,
	// journal encoding, locking).
	ArkMetaOp time.Duration
	// LeaseOp is the lease manager's per-request service cost, serialized
	// over its worker pool: the knob that makes a single manager saturate
	// under an acquire wave the way a real lease server's CPU does.
	LeaseOp time.Duration
	// MemCopyPerByte charges cache memcpy work.
	MemCopyPerByte time.Duration
	// LeasePeriod is the directory lease duration (paper default 5 s).
	LeasePeriod time.Duration
	// RPCWorkers bounds a client's leader-side service concurrency (client
	// machines spend most cores on the application, not the FS daemon).
	RPCWorkers int
	// EBSBandwidth is the external/burst-buffer device (Table II: 1 GB/s).
	EBSBandwidth int64
}

// DefaultCalibration is used by every experiment.
func DefaultCalibration() Calibration {
	return Calibration{
		ClientNet:      sim.NetModel{Latency: 30 * time.Microsecond, Bandwidth: 6250 << 20},
		FUSEOverhead:   5 * time.Microsecond,
		ArkMetaOp:      6 * time.Microsecond,
		LeaseOp:        20 * time.Microsecond,
		MemCopyPerByte: time.Nanosecond / 8, // ~8 GB/s effective memcpy
		LeasePeriod:    5 * time.Second,
		RPCWorkers:     4,
		EBSBandwidth:   1 << 30,
	}
}

// Scale holds the scaled-down workload parameters (the paper's full sizes in
// comments); shapes, not absolute numbers, are the reproduction target.
type Scale struct {
	MdtestProcs        int   // paper: 16
	MdtestFilesPerProc int   // paper: 62500 (1M total)
	MdtestSharedDirs   int   // mdtest-hard directory count
	FioProcs           int   // paper: 32
	FioFileSize        int64 // paper: 32 GiB
	FioReqSize         int64 // paper: 128 KiB
	ScaleClients       []int // paper: 1..512
	ScaleFilesPerProc  int
	ArchiveProcs       int // paper: 32
	ArchiveFiles       int // paper: 41K per dataset
}

// DefaultScale finishes in minutes on a laptop.
func DefaultScale() Scale {
	return Scale{
		MdtestProcs:        16,
		MdtestFilesPerProc: 1500,
		MdtestSharedDirs:   16,
		FioProcs:           8,
		FioFileSize:        64 << 20,
		FioReqSize:         128 << 10,
		ScaleClients:       []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512},
		ScaleFilesPerProc:  150,
		ArchiveProcs:       4,
		ArchiveFiles:       3000,
	}
}

// QuickScale is for tests and smoke runs.
func QuickScale() Scale {
	return Scale{
		MdtestProcs:        4,
		MdtestFilesPerProc: 100,
		MdtestSharedDirs:   4,
		// Bandwidth shapes need files spanning several read-ahead windows,
		// so fio keeps realistic sizes even at smoke scale.
		FioProcs:          4,
		FioFileSize:       64 << 20,
		FioReqSize:        256 << 10,
		ScaleClients:      []int{1, 2, 8, 32},
		ScaleFilesPerProc: 40,
		ArchiveProcs:      2,
		ArchiveFiles:      200,
	}
}

// Deployment is one system instance under test: its mounts plus teardown.
type Deployment struct {
	Mounts  []fsapi.FileSystem
	Cluster *objstore.Cluster
	// Fault is the fault-injection layer between the clients and the
	// cluster, non-nil when ArkFSOptions.FlakyProb > 0.
	Fault *objstore.FaultStore
	// Ark holds the raw ArkFS clients behind Mounts (nil for baselines),
	// for retry/cache statistics.
	Ark []*core.Client
	// Leases is the elastic lease cluster, non-nil when the deployment was
	// built with ArkFSOptions.LeaseShards > 1.
	Leases *lease.Cluster
	close  []func()
}

// builder deploys a system with n clients. Must be called inside env.Run.
type builder func(env sim.Env, n int) (*Deployment, error)

// simulate owns one simulated run from start to finish: a fresh virtual
// clock, the deployment build deploys with n clients, body against it, and
// the teardown. It returns the first error.
func simulate(n int, build builder, body func(env sim.Env, d *Deployment) error) error {
	env := sim.NewVirtEnv()
	var err error
	env.Run(func() {
		var d *Deployment
		if d, err = build(env, n); err != nil {
			return
		}
		defer d.Close()
		err = body(env, d)
	})
	return err
}

// arkfs is BuildArkFS as a builder.
func arkfs(cal Calibration, prof objstore.Profile, o ArkFSOptions) builder {
	return func(env sim.Env, n int) (*Deployment, error) { return BuildArkFS(env, cal, prof, n, o) }
}

// ceph is BuildCeph as a builder.
func ceph(cal Calibration, prof objstore.Profile, o CephOptions) builder {
	return func(env sim.Env, n int) (*Deployment, error) { return BuildCeph(env, cal, prof, n, o) }
}

// newCluster starts the object store of a deployment whose data path stores
// chunkSize-byte chunks, each sealed with a checksum trailer.
func newCluster(env sim.Env, prof objstore.Profile, chunkSize int64) *objstore.Cluster {
	prof.MaxObjectSize = max(prof.MaxObjectSize, chunkSize+wire.TrailerSize)
	return objstore.NewCluster(env, prof)
}

// RetryCount sums the store-path retries across all ArkFS clients.
func (d *Deployment) RetryCount() int64 {
	var total int64
	for _, c := range d.Ark {
		if rs := c.RetryStats(); rs != nil {
			total += rs.Retries()
		}
	}
	return total
}

// Close tears the deployment down.
func (d *Deployment) Close() {
	for i := len(d.close) - 1; i >= 0; i-- {
		d.close[i]()
	}
}

// DropAllCaches invokes the cache-drop hook on every mount that has one.
func (d *Deployment) DropAllCaches() {
	type dropper interface{ DropAllCaches() }
	for _, m := range d.Mounts {
		if dr, ok := m.(dropper); ok {
			dr.DropAllCaches()
		}
	}
}

// ArkFSOptions selects ArkFS variants.
type ArkFSOptions struct {
	PermCache bool
	Readahead int64 // 0: the 8 MiB default
	ChunkSize int64 // 0: 2 MiB
	// CacheEntries bounds the data cache per client (memory control).
	CacheEntries int
	// LeaseShards > 1 deploys an elastic lease-manager cluster (the paper's
	// future work) instead of the single manager: directories route onto
	// shards by rendezvous hashing, and the deployment's Leases handle
	// reshards it at runtime.
	LeaseShards int
	// LeasePersist gives every lease shard grant-table persistence through
	// the object store (sealed snapshots under "lm:"), so a killed and
	// restarted shard resumes its grants instead of stalling a full grace
	// period. Only meaningful with LeaseShards > 1.
	LeasePersist bool
	// FlakyProb > 0 inserts a FaultStore between the clients and the
	// cluster that fails every store op with this probability (seeded by
	// FlakySeed), for fault-injection experiments. Formatting bypasses it.
	FlakyProb float64
	FlakySeed int64
	// Retry enables the clients' retrying store path with this policy.
	Retry *objstore.RetryPolicy
	// Obs attaches a shared metrics registry: every client, the RPC network,
	// and the lease manager(s) record into it, and the deployment folds
	// fault-layer tallies in. Nil disables instrumentation (zero overhead).
	Obs *obs.Registry
	// Seed offsets every client's deterministic ID seed (trace/span IDs
	// derive from it), so two same-config runs with different seeds produce
	// disjoint ID streams. Zero keeps the historical per-client seeds.
	Seed int64
	// Tenants > 0 colors the clients with that many tenant IDs round-robin
	// (client i becomes "tenant-<i mod Tenants>"), so per-tenant accounting
	// aggregates several clients per tenant. Zero keeps the per-client
	// default ("tenant-<ID>").
	Tenants int
	// QoSRate > 0 attaches per-tenant token-bucket admission control to
	// every client's leader serve path: each serving client admits at most
	// QoSRate forwarded operations per second per tenant, with QoSBurst
	// bucket depth (default 8). Refusals surface as typed retry-after
	// pushback. QoSTenants pins per-tenant overrides on every limiter.
	QoSRate    float64
	QoSBurst   float64
	QoSTenants map[string]qos.Limits
	// LeaseQoSRate > 0 applies the same per-tenant admission control to the
	// lease manager's Acquire path, answered through the existing
	// Wait/RetryAfter protocol.
	LeaseQoSRate  float64
	LeaseQoSBurst float64
	// Brownout enables the leader brownout ladder: under journal-pipeline
	// pressure expensive forwarded ops shed before cheap ones.
	Brownout bool
	// OpBudget caps one public operation's total internal retries across
	// all of its retry loops (0: core.DefaultOpBudget; negative: disabled).
	OpBudget int
	// MaxInbox / ShedWait bound every client's leader-side RPC service and
	// the lease manager(s): see rpc.ServerLimits.
	MaxInbox int
	ShedWait time.Duration
	// Breaker mounts a seeded circuit breaker under each client's store
	// retry path.
	Breaker bool
	// Journal configures every client's journal (zero: 1 s commit interval,
	// 4 commit and 4 checkpoint workers, fan-out 64, pipeline depth 8).
	Journal journal.Config
}

// BuildArkFS deploys ArkFS with n clients on the given storage profile.
// Must be called inside env.Run.
func BuildArkFS(env sim.Env, cal Calibration, prof objstore.Profile, n int, o ArkFSOptions) (*Deployment, error) {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 2 << 20
	}
	if o.Readahead == 0 {
		o.Readahead = 8 << 20
	}
	if o.Readahead < 0 {
		o.Readahead = 0 // read-ahead disabled (ablation)
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 40
	}
	if o.Journal == (journal.Config{}) {
		o.Journal = journal.Config{
			CommitInterval: time.Second, CommitWorkers: 4,
			CheckpointWorkers: 4, CheckpointFanout: 64,
			PipelineDepth: 8,
		}
	}
	cluster := newCluster(env, prof, o.ChunkSize)
	// Format through the raw cluster: fault injection targets the workload,
	// not deployment setup.
	if err := core.Format(prt.New(cluster, o.ChunkSize)); err != nil {
		return nil, err
	}
	var store objstore.Store = cluster
	d := &Deployment{Cluster: cluster}
	if o.FlakyProb > 0 {
		d.Fault = objstore.NewFaultStore(cluster)
		d.Fault.SetFlaky(o.FlakyProb, o.FlakySeed)
		store = d.Fault
		if o.Obs != nil {
			fs := d.Fault
			o.Obs.Func("faultstore.ops", func() int64 { return int64(fs.Ops()) })
			o.Obs.Func("faultstore.injected", func() int64 { return int64(fs.Injected()) })
		}
	}
	tr := prt.New(store, o.ChunkSize)
	net := rpc.NewNetwork(env, cal.ClientNet)
	if o.Obs != nil {
		net.SetObs(o.Obs)
	}
	d.close = append(d.close, cluster.Close)
	lo := lease.Options{Period: cal.LeasePeriod, Workers: 8, ServiceCost: cal.LeaseOp, Obs: o.Obs,
		Limits: rpc.ServerLimits{MaxInbox: o.MaxInbox, ShedWait: o.ShedWait},
		QoS:    o.limiter(o.LeaseQoSRate, o.LeaseQoSBurst)}
	if o.LeaseShards > 1 {
		co := lease.ClusterOptions{Shards: o.LeaseShards, Manager: lo}
		if o.LeasePersist {
			co.Store = store
		}
		d.Leases = lease.NewCluster(net, co)
		d.close = append(d.close, d.Leases.Close)
	} else {
		mgr := lease.NewManager(net, lo)
		d.close = append(d.close, mgr.Close)
	}
	for i := 0; i < n; i++ {
		var router lease.Router
		if d.Leases != nil {
			// Each client owns its router: the cached ring updates lazily
			// from StaleRing redirects, per client.
			router = d.Leases.Router()
		}
		var tenant string
		if o.Tenants > 0 {
			tenant = fmt.Sprintf("tenant-%02d", i%o.Tenants)
		}
		var ladder *qos.BrownoutLadder
		if o.Brownout {
			ladder = &qos.BrownoutLadder{}
		}
		var breaker *qos.BreakerConfig
		if o.Breaker {
			breaker = &qos.BreakerConfig{Seed: o.Seed + int64(i)*104729}
		}
		// Each serving client enforces admission (QoS) on its own leader path,
		// so a tenant's allowance is per leader, matching how capacity is owned.
		c := core.New(net, tr, core.Options{
			ID:           fmt.Sprintf("%04d", i),
			Tenant:       tenant,
			Cred:         types.Cred{Uid: 1000, Gid: 1000},
			LeaseRouter:  router,
			PermCache:    o.PermCache,
			FUSEOverhead: cal.FUSEOverhead,
			Cost: sim.CostModel{
				LocalMetaOp:    cal.ArkMetaOp,
				MemCopyPerByte: cal.MemCopyPerByte,
			},
			Journal: o.Journal,
			Cache: cache.Config{
				EntrySize:        o.ChunkSize,
				MaxEntries:       o.CacheEntries,
				MaxReadahead:     o.Readahead,
				FlushParallelism: 16,
				// The FUSE daemon's read-ahead thread pool bounds in-flight
				// prefetches; goofys's giant window wins by deeper pipelining,
				// not by a faster pipe.
				PrefetchParallelism: 24,
				Cost:                sim.CostModel{MemCopyPerByte: cal.MemCopyPerByte},
			},
			RPCWorkers:   cal.RPCWorkers,
			LeasePeriod:  cal.LeasePeriod,
			Retry:        o.Retry,
			Obs:          o.Obs,
			Seed:         o.Seed + int64(1000+i),
			QoS:          o.limiter(o.QoSRate, o.QoSBurst),
			Brownout:     ladder,
			OpBudget:     o.OpBudget,
			Breaker:      breaker,
			ServerLimits: rpc.ServerLimits{MaxInbox: o.MaxInbox, ShedWait: o.ShedWait},
		})
		d.Mounts = append(d.Mounts, fsapi.Adapt(c))
		d.Ark = append(d.Ark, c)
		d.close = append(d.close, func() { _ = c.Close() })
	}
	return d, nil
}

// limiter is a per-tenant admission controller at rate (burst default 8)
// with the QoSTenants overrides pinned; nil when rate is zero.
func (o *ArkFSOptions) limiter(rate, burst float64) *qos.Limiter {
	if rate <= 0 {
		return nil
	}
	if burst <= 0 {
		burst = 8
	}
	l := qos.NewLimiter(qos.Limits{Rate: rate, Burst: burst})
	for t, lim := range o.QoSTenants {
		l.SetTenant(t, lim)
	}
	return l
}

// CephOptions selects CephFS variants.
type CephOptions struct {
	NumMDS    int
	FUSE      bool
	ChunkSize int64
	// CacheEntries bounds the page cache per client.
	CacheEntries int
}

// BuildCeph deploys the CephFS-like baseline.
func BuildCeph(env sim.Env, cal Calibration, prof objstore.Profile, n int, o CephOptions) (*Deployment, error) {
	if o.NumMDS <= 0 {
		o.NumMDS = 1
	}
	if o.ChunkSize <= 0 {
		if o.FUSE {
			o.ChunkSize = 128 << 10 // FUSE page-sized transfers + tiny RA
		} else {
			o.ChunkSize = 2 << 20
		}
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 40
		if o.FUSE {
			o.CacheEntries = 640 // same bytes, smaller entries
		}
	}
	cluster := newCluster(env, prof, o.ChunkSize)
	tr := prt.New(cluster, o.ChunkSize)
	net := rpc.NewNetwork(env, cal.ClientNet)
	co := cephsim.DefaultClusterOptions(fmt.Sprintf("ceph%d", o.NumMDS), o.NumMDS)
	c := cephsim.NewCluster(net, tr, co)
	d := &Deployment{Cluster: cluster}
	d.close = append(d.close, cluster.Close, c.Close)
	for i := 0; i < n; i++ {
		m := c.NewMount(cephsim.MountOptions{
			FUSE:         o.FUSE,
			FUSEOverhead: cal.FUSEOverhead,
			Net:          cal.ClientNet,
			Cred:         types.Cred{Uid: 1000, Gid: 1000},
			Cache: cache.Config{
				EntrySize:        o.ChunkSize,
				MaxEntries:       o.CacheEntries,
				FlushParallelism: 16, // same write-back pool as ArkFS
				Cost:             sim.CostModel{MemCopyPerByte: cal.MemCopyPerByte},
			},
		})
		d.Mounts = append(d.Mounts, m)
	}
	return d, nil
}

// BuildMarFS deploys the MarFS-like baseline.
func BuildMarFS(env sim.Env, cal Calibration, prof objstore.Profile, n int, readFails bool) (*Deployment, error) {
	cluster := objstore.NewCluster(env, prof)
	tr := prt.New(cluster, 1<<20)
	net := rpc.NewNetwork(env, cal.ClientNet)
	opts := marfssim.DefaultOptions("marfs")
	opts.Net = cal.ClientNet
	opts.FUSEOverhead = cal.FUSEOverhead
	opts.ReadFails = readFails
	c := marfssim.NewCluster(net, tr, opts)
	d := &Deployment{Cluster: cluster}
	d.close = append(d.close, cluster.Close, c.Close)
	for i := 0; i < n; i++ {
		d.Mounts = append(d.Mounts, c.NewMount(types.Cred{Uid: 1000, Gid: 1000}))
	}
	return d, nil
}

// BuildS3FS deploys the S3FS-like baseline on the S3 profile.
func BuildS3FS(env sim.Env, cal Calibration, prof objstore.Profile, n int) (*Deployment, error) {
	prof.SizeOnlyPrefix = "" // path-keyed objects carry the data
	prof.SizeOnly = true     // fio reads don't parse payloads
	cluster := objstore.NewCluster(env, prof)
	d := &Deployment{Cluster: cluster}
	d.close = append(d.close, cluster.Close)
	for i := 0; i < n; i++ {
		opts := s3fssim.DefaultOptions()
		opts.FUSEOverhead = cal.FUSEOverhead
		d.Mounts = append(d.Mounts, s3fssim.New(env, cluster, opts))
	}
	return d, nil
}

// BuildGoofys deploys the goofys-like baseline on the S3 profile.
func BuildGoofys(env sim.Env, cal Calibration, prof objstore.Profile, n int) (*Deployment, error) {
	prof.SizeOnlyPrefix = ""
	prof.SizeOnly = true
	cluster := objstore.NewCluster(env, prof)
	d := &Deployment{Cluster: cluster}
	d.close = append(d.close, cluster.Close)
	for i := 0; i < n; i++ {
		opts := goofyssim.DefaultOptions()
		opts.FUSEOverhead = cal.FUSEOverhead
		opts.Net = prof.ClientNet
		d.Mounts = append(d.Mounts, goofyssim.New(env, cluster, opts))
	}
	return d, nil
}
