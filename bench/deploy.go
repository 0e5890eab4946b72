package main

// Every construction of a program object the benchmark drives lives in this
// file, so API drift in the program breaks the build here and nowhere else.
// The calibration constants of the simulated cluster are copied here (not
// imported from internal/harness) so a later change cannot alter the load by
// editing them.

import (
	"fmt"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/core"
	"arkfs/internal/fsapi"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

const chunkSize = 2 << 20

// Simulated-cluster calibration (the values of harness.DefaultCalibration at
// the commit that defined this benchmark).
var (
	simClientNet    = sim.NetModel{Latency: 30 * time.Microsecond, Bandwidth: 6250 << 20}
	simMetaOp       = 6 * time.Microsecond
	simFUSEOverhead = 5 * time.Microsecond
	simLeaseOp      = 20 * time.Microsecond
	simMemCopy      = time.Nanosecond / 8
	simLeasePeriod  = 5 * time.Second
)

var benchCred = types.Cred{Uid: 1000, Gid: 1000}

// deployment is one in-process ArkFS instance: store, network, lease manager
// and the clients mounted on it so far.
type deployment struct {
	env     sim.Env
	base    objstore.Store // what the bytes finally land in
	store   objstore.Store // what the clients talk to: base, or base behind the timing wrapper
	net     *rpc.Network
	mgr     *lease.Manager
	cluster *objstore.Cluster // non-nil for the simulated cluster
	virt    bool
	// permCache mounts clients in the paper's permission-caching mode
	// (§III-C): lookups in directories another client leads are cached for one
	// lease period. mdtest_easy sets it so that resolving the shared ancestors
	// of the private directories costs no round trip per call.
	permCache bool
	reg       *obs.Registry // non-nil in a traced round only
	rec       *recorder     // non-nil in a traced round only
}

// deployWall builds a wall-clock deployment: RealEnv, MemStore, a network
// with no latency. rec != nil turns the round into a traced one: a timing
// store sits between prt and the MemStore and an obs registry is attached to
// the network, the lease manager and every client.
func deployWall(rec *recorder) (*deployment, error) {
	env := sim.NewRealEnv()
	d := &deployment{env: env, base: objstore.NewMemStore(), rec: rec}
	return d, d.finish(sim.NetModel{}, lease.Options{})
}

// deploySim builds the simulated RADOS deployment inside env (the caller is
// inside env.Run).
func deploySim(env *sim.VirtEnv, rec *recorder) (*deployment, error) {
	d := &deployment{env: env, virt: true, rec: rec}
	d.cluster = objstore.NewCluster(env, objstore.RADOSProfile())
	d.base = d.cluster
	return d, d.finish(simClientNet, lease.Options{Period: simLeasePeriod, ServiceCost: simLeaseOp})
}

func (d *deployment) finish(model sim.NetModel, lo lease.Options) error {
	d.store = d.base
	if d.rec != nil {
		d.store = &timedStore{inner: d.base, rec: d.rec, now: d.env.Now}
		d.reg = obs.NewRegistry()
	}
	// Format through the store the clients use: a formatted image is part of
	// what set-up costs.
	if err := core.Format(prt.New(d.store, chunkSize)); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	d.net = rpc.NewNetwork(d.env, model)
	if d.reg != nil {
		d.net.SetObs(d.reg)
	}
	lo.Obs = d.reg
	d.mgr = lease.NewManager(d.net, lo)
	return nil
}

// mount starts one client. cc is the data-cache configuration (zero value:
// the program's defaults). The returned FileSystem is the bare adapter in an
// untraced round and the span-recording wrapper in a traced one.
func (d *deployment) mount(id string, cc cache.Config) (fsapi.FileSystem, *core.Client) {
	o := core.Options{ID: id, Cred: benchCred, Cache: cc, Obs: d.reg, PermCache: d.permCache}
	if d.virt {
		o.Cost = sim.CostModel{LocalMetaOp: simMetaOp, MemCopyPerByte: simMemCopy}
		o.FUSEOverhead = simFUSEOverhead
		o.Cache.Cost = sim.CostModel{MemCopyPerByte: simMemCopy}
	}
	// A translator of its own per client: core.New registers the client's
	// registry on it, and clients are mounted from several goroutines at once.
	c := core.New(d.net, prt.New(d.store, chunkSize), o)
	fs := fsapi.Adapt(c)
	if d.rec != nil {
		fs = d.rec.wrapFS(fs, d.env.Now)
	}
	return fs, c
}

// close stops the deployment's servers; clients are closed by the workload,
// inside its drain clock.
func (d *deployment) close() {
	d.mgr.Close()
	if d.cluster != nil {
		d.cluster.Close()
	}
	if !d.virt {
		d.env.Shutdown()
	}
}

// storedBytes is the number of bytes the base store holds, for write
// amplification and for subtracting the store from the live heap.
func (d *deployment) storedBytes() int64 {
	keys, err := d.base.List("")
	if err != nil {
		return 0
	}
	var n int64
	for _, k := range keys {
		if sz, err := d.base.Head(k); err == nil {
			n += sz
		}
	}
	return n
}
