package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/crashpoint"
	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/metatable"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// Options configures one ArkFS client.
type Options struct {
	// ID names the client; its RPC address is "arkfs-<ID>".
	ID string
	// Cred is the identity used for permission checks.
	Cred types.Cred
	// LeaseMgr is the lease manager's address.
	LeaseMgr rpc.Addr
	// LeaseRing routes each directory to its lease-manager shard (the paper's
	// future-work "cluster of lease managers", lease.Cluster.Ring). The zero
	// ring uses LeaseMgr for every directory.
	LeaseRing lease.Ring
	// PermCache enables the permission caching mode (paper §III-C): remote
	// directory permissions and lookups are cached for one lease period,
	// trading strict ACL-change visibility for locality in path resolution.
	PermCache bool
	// FUSEOverhead is charged once per file-system request, modelling the
	// user/kernel context switch of the FUSE framework; zero disables it.
	FUSEOverhead time.Duration
	// Cost models local CPU charges (metadata ops, memcpy).
	Cost sim.CostModel
	// Journal configures per-directory journaling.
	Journal journal.Config
	// Cache configures the data object cache.
	Cache cache.Config
	// RPCWorkers is how many forwarded requests run at once (default 16).
	RPCWorkers int
	// LeasePeriod mirrors the manager's lease duration; it bounds the
	// lifetime of permission-cache entries (default lease.DefaultPeriod).
	LeasePeriod time.Duration
	// Retry, when non-nil, wraps the client's store path in an
	// objstore.RetryStore with this policy, so every round-trip (journal
	// commit, cache write-back, metatable load, recovery scan) survives
	// transient backend failures. Nil disables retries (fail fast).
	Retry *objstore.RetryPolicy
	// Crash, when non-nil, is this client's crash-site registry: the journal
	// and recovery paths announce the sites they pass, and a kill gate is
	// mounted over the store so a killed client issues no further I/O.
	Crash *crashpoint.Set
	// Seed seeds the client's inode number generator.
	Seed int64
	// AcquireRetries bounds waits on recovering/quiescing directories.
	AcquireRetries int
	// Advertise overrides the client's public address — the one the lease
	// manager hands to other clients. Multi-process deployments set it to
	// rpc.TCPAddr(<bridge endpoint>) and bridge ServiceName(ID) to that port.
	Advertise rpc.Addr
	// Obs, when non-nil, is the metrics registry this client reports into:
	// per-op latency histograms, route counters, data/cache/journal/store
	// activity. It also enables the per-op trace ring. Several clients may
	// share one registry; same-named metrics aggregate cluster-wide. Nil
	// disables observability at (near) zero cost.
	Obs *obs.Registry
	// TraceCap sizes the per-op trace ring buffer (default 256 spans); only
	// meaningful when Obs is set.
	TraceCap int
	// QoS, when non-nil, is the leader-side admission controller: every
	// forwarded operation is charged to the bucket of its origin, the client
	// the op started at (rpc.Meta.Origin), and refusals answer with typed
	// EAGAIN pushback carrying a retry-after hint. Nil admits everything.
	QoS *qos.Limiter
}

// Client is one ArkFS mount: the public near-POSIX API plus the leader-side
// metadata service for the directories this client leads.
type Client struct {
	env    sim.Env
	net    *rpc.Network
	tr     *prt.Translator
	retry  *objstore.RetryStore // non-nil when Options.Retry is set
	jrnl   *journal.Journal
	data   *cache.Cache
	lm     *lease.Client
	addr   rpc.Addr
	opts   Options
	server *rpc.Server

	mu sync.Mutex
	// led maps each directory this client leads to its *ledDir. It is read
	// without c.mu (ledEntry, ledDirFor) and written under it.
	led    sync.Map
	remote map[types.Ino]rpc.Addr // last known leader of remote directories
	pcache map[types.Ino]*permEntry
	// pcacheSweep is when pcachePut next drops every expired pcache entry.
	pcacheSweep time.Duration
	open        map[types.Ino]*openFile // inodes with a live handle or a release pending
	closed      bool
	// acquiring runs one lease acquisition or release per directory at a
	// time (serialize). An entry lives only while one holds or waits for it.
	acquiring  map[types.Ino]*acquisition
	hold       leaseHolder         // as a holder: the client's side of its data leases
	quiet      *sim.Chan[struct{}] // made by a FlushAll or Close that waits for hold's returns
	keepPeriod time.Duration       // what the leaseKeeper wakes for

	grantSeq atomic.Uint64 // as a leader: the last number a data-lease grant was given

	// wbErr records the first background write-back failure (lease-recall or
	// close-path flushes run off the caller's stack); FlushAll and Close
	// surface it instead of dropping it.
	wbMu  sync.Mutex
	wbErr error

	inoSrc *types.InoSource
	stats  Stats

	// Observability sinks (all nil-safe no-ops when Options.Obs is nil).
	obsReg       *obs.Registry
	tracer       *obs.Tracer
	opHists      map[string]*obs.Histogram // read-only after New
	cBytesRead   *obs.Counter
	cBytesWrite  *obs.Counter
	cWBErrs      *obs.Counter
	hAcquireWait *obs.Histogram

	// Overload-protection sinks (nil-safe no-ops when Options.Obs is nil).
	cShedAdmit      *obs.Counter // leader admission refusals
	cPushbackHonors *obs.Counter // EAGAIN hints honored (slept and retried)
}

// opNames are the public operations with per-op latency histograms
// ("core.op.<name>") and trace spans.
var opNames = []string{
	"mkdir", "symlink", "readlink", "stat", "lstat", "unlink", "rmdir",
	"readdir", "rename", "chmod", "chown", "setfacl", "utimes", "truncate",
	"fsync", "flushall", "open", "read", "write",
}

// acquisition is one directory's lease-acquisition serializer; refs counts
// holder plus waiters.
type acquisition struct {
	mu   *sim.Mutex
	refs int
}

// ledDir is a directory this client currently leads.
type ledDir struct {
	// opMu serializes compound metadata operations (lookup-then-insert
	// sequences) across the client's own calls and RPC service workers. It
	// is env-aware because leader-side operations charge simulated time and
	// perform store I/O while holding it.
	opMu  *sim.Mutex
	table *metatable.Table
	lease atomic.Pointer[lease.DirLease]
	// leases is this leader's side of its files' data leases (paper §III-D).
	leases leaseTable
	// renames are the cross-directory renames this table holds a tentative
	// entry of, as their participant, until each resolves (guarded by c.mu).
	renames map[uint64]journal.Rename
	// durableEpoch is the metatable epoch covered by the last successful
	// durability barrier (guarded by c.mu). An fsync that finds the table
	// epoch unchanged has nothing new to make durable and skips the journal
	// barrier entirely.
	durableEpoch uint64
	// released is set under opMu when ReleaseDir gives the directory up. A
	// mutation that takes opMu later refuses with ESTALE, so the flush that
	// follows holds every mutation this table acknowledged.
	released bool
}

// grant replaces the lease with a grant of period under id, requested at
// sent. A lease is never changed in place, so a reader needs no lock.
func (ld *ledDir) grant(sent, period time.Duration, id uint64) {
	var l lease.DirLease
	l.Grant(sent, period, id)
	ld.lease.Store(&l)
}

// writable gates every mutating operation on a led directory. A released
// directory takes no more mutations (ESTALE). A directory whose table lost
// entries to detected corruption (its dentry block at load, or a child
// whenever it is fetched) is served read-only from the last valid state until
// the scrubber repairs the objects and the next leadership change reloads it.
func (ld *ledDir) writable() error {
	if ld.released {
		return fmt.Errorf("core: directory released: %w", types.ErrStale)
	}
	if ld.table.Lost() > 0 {
		return fmt.Errorf("core: directory degraded by detected corruption, serving read-only: %w", types.ErrReadOnly)
	}
	return nil
}

// target looks up name, under which a create or a rename is about to put an
// entry: the child there, or nil if the name is free. A fetch that finds the
// child corrupt or missing drops it, and the name reads as free; but the
// directory turned read-only with the drop, so writable, asked again after
// the lookup, refuses the operation, and no new entry replaces the lost one
// in the store. Any other lookup error (EIO from the child's GET, ESTALE from
// a dropped table) is the operation's.
func (ld *ledDir) target(name string) (*types.Inode, error) {
	existing, err := ld.table.Peek(name)
	if err == nil {
		return existing, nil
	}
	if !isNotExist(err) {
		return nil, err
	}
	return nil, ld.writable()
}

// permEntry is one permission-cache record: a remote directory's resolved
// lookups (nil: the leader said ENOENT) and, under the empty name, its own
// inode, valid for one lease period.
type permEntry struct {
	lookups map[string]*types.Inode
	expiry  time.Duration
}

// Stats counts client-side activity for the benchmark reports.
type Stats struct {
	LocalMetaOps, RemoteMetaOps, LeaseAcquires, PcacheHits atomic.Int64
	// PushbackHonored counts the retry-after hints this client slept out.
	PushbackHonored atomic.Int64
}

// New creates and starts a client on net.
func New(net *rpc.Network, tr *prt.Translator, opts Options) *Client {
	if opts.ID == "" {
		opts.ID = "0"
	}
	if opts.LeaseMgr == "" {
		opts.LeaseMgr = "leasemgr"
	}
	if opts.RPCWorkers <= 0 {
		opts.RPCWorkers = 16
	}
	if opts.LeasePeriod <= 0 {
		opts.LeasePeriod = lease.DefaultPeriod
	}
	if opts.AcquireRetries <= 0 {
		opts.AcquireRetries = 16
	}
	if opts.Seed == 0 {
		opts.Seed = int64(len(opts.ID)) + 7919
		for _, r := range opts.ID {
			opts.Seed = opts.Seed*131 + int64(r)
		}
	}
	env := net.Env()
	// The client's store path, innermost first: the caller's store, then
	// instrument, retry, kill gate, each only if its option is set.
	// DESIGN.md §7.3 gives the reason for each adjacency and
	// TestStoreLayerOrder asserts them. The translator over it is this
	// client's own: the caller's is shared by every client of a deployment.
	store := objstore.Instrument(tr.Store(), opts.Obs)
	var retry *objstore.RetryStore
	if opts.Retry != nil {
		retry = objstore.NewRetryStore(env, store, *opts.Retry)
		store = retry
	}
	if opts.Crash != nil {
		store = crashpoint.NewGateStore(opts.Crash, store)
	}
	tr = prt.New(store, tr.ChunkSize())
	// Checksum failures anywhere under this client (inode, dentry, chunk)
	// count against integrity.detected. Nil-safe for uninstrumented clients.
	tr.SetObs(opts.Obs)
	var tracer *obs.Tracer
	if opts.Obs != nil {
		// The tracer is built before the journal so journal commits and
		// checkpoints can parent their spans under the operations that fed
		// them. Its ID stream is seeded from the (derived) client seed, so a
		// seeded deployment replays with identical trace IDs.
		tracer = obs.NewTracer(opts.TraceCap, env.Now)
		tracer.SetProc("arkfs-" + opts.ID)
		tracer.SetSeed(uint64(opts.Seed))
	}
	jcfg := opts.Journal
	jcfg.Crash = opts.Crash
	jcfg.Obs = opts.Obs
	jcfg.Trace = tracer
	c := &Client{
		env:    env,
		net:    net,
		tr:     tr,
		retry:  retry,
		jrnl:   journal.New(env, tr, jcfg),
		data:   cache.New(env, tr, opts.Cache),
		addr:   rpc.Addr("arkfs-" + opts.ID),
		opts:   opts,
		remote: make(map[types.Ino]rpc.Addr),
		pcache: make(map[types.Ino]*permEntry),
		open:   make(map[types.Ino]*openFile),
		inoSrc: types.NewInoSource(opts.Seed),

		acquiring:  make(map[types.Ino]*acquisition),
		keepPeriod: opts.LeasePeriod,
	}
	c.jrnl.SetTxnIDBase(uint64(opts.Seed) & 0xFFFFFFFF)
	if opts.Obs != nil {
		c.obsReg = opts.Obs
		c.tracer = tracer
		opts.Obs.Func("obs.trace.spans", c.tracer.Total)
		c.opHists = make(map[string]*obs.Histogram, len(opNames))
		for _, op := range opNames {
			c.opHists[op] = opts.Obs.Histogram("core.op." + op)
		}
		c.cBytesRead = opts.Obs.Counter("core.data.bytes.read")
		c.cBytesWrite = opts.Obs.Counter("core.data.bytes.written")
		c.cWBErrs = opts.Obs.Counter("core.writeback.errors")
		c.hAcquireWait = opts.Obs.Histogram("core.lease.acquire.wait")
		// Pre-existing atomic stats fold in at snapshot time; repeated
		// registrations of one name sum across clients sharing the registry.
		opts.Obs.Func("core.meta.local", c.stats.LocalMetaOps.Load)
		opts.Obs.Func("core.meta.remote", c.stats.RemoteMetaOps.Load)
		opts.Obs.Func("core.lease.acquires", c.stats.LeaseAcquires.Load)
		opts.Obs.Func("core.pcache.hits", c.stats.PcacheHits.Load)
		cs := c.data.Stat()
		opts.Obs.Func("cache.hits", cs.Hits.Load)
		opts.Obs.Func("cache.misses", cs.Misses.Load)
		opts.Obs.Func("cache.readaheads", cs.Readaheads.Load)
		opts.Obs.Func("cache.writebacks", cs.Writebacks.Load)
		opts.Obs.Func("cache.evictions", cs.Evictions.Load)
		opts.Obs.Func("cache.writeback.errors", cs.WritebackErrors.Load)
		if retry != nil {
			rs := retry.RetryStats()
			opts.Obs.Func("objstore.retries", rs.Retries)
			opts.Obs.Func("objstore.retries.exhausted", rs.Exhausted.Load)
		}
		c.cShedAdmit = opts.Obs.Counter("qos.shed.core.admission")
		c.cPushbackHonors = opts.Obs.Counter("qos.pushback.honored")
	}
	listen := c.addr
	if opts.Advertise != "" {
		listen, c.addr = ServiceName(opts.ID), opts.Advertise
	}
	c.lm = &lease.Client{Net: net, Mgr: opts.LeaseMgr, Self: c.addr, Ring: opts.LeaseRing}
	c.server = net.ListenCtx(listen, opts.RPCWorkers, c.serve)
	env.Go(c.leaseKeeper)
	env.Go(c.twopcResolver)
	return c
}

// leaseKeeper extends the leases of led directories before they lapse, so an
// active leader is never mistaken for a crashed one (paper §III-B: "if there
// is not enough time ... the leader tries to extend the lease"). It wakes at
// a third of keepPeriod, the shortest period granted (Options.LeasePeriod
// before any); a shorter grant starts a keeper that replaces it (install).
func (c *Client) leaseKeeper() {
	c.mu.Lock()
	period := c.keepPeriod
	c.mu.Unlock()
	interval := period / 3
	if interval <= 0 {
		interval = time.Second
	}
	for {
		c.env.Sleep(interval)
		if c.env.Stopped() {
			return
		}
		c.mu.Lock()
		if c.closed || c.keepPeriod != period {
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		var due []types.Ino
		now := c.env.Now()
		for ino, ld := range c.ledSet() {
			if ld.lease.Load().Due(now) {
				due = append(due, ino)
			}
		}
		slices.SortFunc(due, types.Ino.Compare)
		for _, ino := range due {
			_, _, _ = c.acquireLease(context.Background(), ino)
		}
	}
}

// Addr returns the client's public RPC address.
func (c *Client) Addr() rpc.Addr { return c.addr }

// ServiceName is the in-process listener name of the client with this ID
// when it sets Options.Advertise: a multi-process deployment bridges it to
// the TCP port it advertises, before it calls New.
func ServiceName(id string) rpc.Addr { return rpc.Addr("arkfs-svc-" + id) }

// Stat returns the client's counters.
func (c *Client) StatCounters() *Stats { return &c.stats }

// RetryStats exposes the store-path retry counters; nil when Options.Retry
// was not set.
func (c *Client) RetryStats() *objstore.RetryStats {
	if c.retry == nil {
		return nil
	}
	return c.retry.RetryStats()
}

// Stats snapshots the client's metrics registry: every instrumented layer's
// counters, gauges, and latency histograms. Empty when Options.Obs was nil.
func (c *Client) Stats() obs.Snapshot { return c.obsReg.Snapshot() }

// Registry exposes the metrics registry itself (nil when observability is
// off), for callers that fold additional external counters in.
func (c *Client) Registry() *obs.Registry { return c.obsReg }

// Tracer exposes the per-op trace ring (nil when observability is off); the
// chaos harness dumps it when a run fails.
func (c *Client) Tracer() *obs.Tracer { return c.tracer }

// recordWBErr keeps the first background write-back failure for FlushAll and
// Close to surface; the cache keeps the data dirty, so a later flush retries.
func (c *Client) recordWBErr(err error) {
	if err == nil {
		return
	}
	c.cWBErrs.Inc()
	c.wbMu.Lock()
	if c.wbErr == nil {
		c.wbErr = err
	}
	c.wbMu.Unlock()
}

// takeWBErr returns and clears the recorded background write-back failure.
func (c *Client) takeWBErr() error {
	c.wbMu.Lock()
	defer c.wbMu.Unlock()
	err := c.wbErr
	c.wbErr = nil
	return err
}

// Close flushes all state, releases every lease, and stops the client.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	held := c.ledSet()
	c.mu.Unlock()

	// Close is a lease-handoff barrier: the journal FlushAll is the strong
	// (commit + checkpoint) form, because a cleanly released directory is
	// loaded by the next leader without journal replay. Both flush failures
	// matter to the caller — a swallowed journal error here would report a
	// clean close over lost acknowledged metadata — so the errors are joined
	// rather than first-one-wins.
	err := errors.Join(c.data.FlushAll(), c.jrnl.FlushAll(), c.takeWBErr())
	c.awaitReturns()
	inos := c.stopTables(held)
	for _, ino := range inos {
		// A table that holds a prepared rename releases uncleanly, as in
		// ReleaseDir.
		c.mu.Lock()
		clean := err == nil && len(held[ino].renames) == 0
		c.mu.Unlock()
		_ = c.lm.Release(context.Background(), ino, held[ino].lease.Load().ID(), clean)
	}
	c.mu.Lock()
	c.unleadAll()
	c.mu.Unlock()
	c.jrnl.Close()
	c.server.Close()
	return err
}

// Crash simulates a client failure: the process vanishes without flushing
// buffered transactions or releasing leases. Used by recovery and chaos
// tests. After Crash, the leaseKeeper can no longer extend this client's
// leases (acquireLease refuses on a closed client), so a successor's
// failover is delayed by at most one already-in-flight extension, never
// pushed out indefinitely.
func (c *Client) Crash() {
	c.mu.Lock()
	c.closed = true
	led := c.unleadAll()
	c.mu.Unlock()
	if c.opts.Crash != nil {
		// Dead processes issue no I/O: fail everything behind the gate.
		c.opts.Crash.Kill()
	}
	c.stopTables(led)
	c.jrnl.Close()
	c.server.Close()
}

// ledSet copies the led set, live leases and lapsed alike.
func (c *Client) ledSet() map[types.Ino]*ledDir {
	set := make(map[types.Ino]*ledDir)
	c.led.Range(func(k, v any) bool {
		set[k.(types.Ino)] = v.(*ledDir)
		return true
	})
	return set
}

// stopTables stops the tables of directories this client no longer leads
// and waits for their loaders to end, so that no GET of theirs outlives the
// client. It goes in inode order, returned: the order of the waits must not
// depend on map order.
func (c *Client) stopTables(dropped map[types.Ino]*ledDir) []types.Ino {
	inos := make([]types.Ino, 0, len(dropped))
	for ino := range dropped {
		inos = append(inos, ino)
		dropped[ino].table.Stop()
	}
	slices.SortFunc(inos, types.Ino.Compare)
	for _, ino := range inos {
		dropped[ino].table.Await()
	}
	return inos
}

// chargeFUSE models the FUSE request overhead for one application-visible
// file-system call.
func (c *Client) chargeFUSE() {
	if c.opts.FUSEOverhead > 0 {
		c.env.Sleep(c.opts.FUSEOverhead)
	}
}

// chargeMetaOp models the in-memory metadata table operation cost.
func (c *Client) chargeMetaOp() {
	if c.opts.Cost.LocalMetaOp > 0 {
		c.env.Sleep(c.opts.Cost.LocalMetaOp)
	}
}

// routeFor resolves who serves metadata for dir: this client (a live
// *ledDir) or a remote leader (its address). It prefers what the client
// already knows: its own leadership, then the cached remote-leader pointer
// (the "remote metatable" entry of Fig. 3c), and only then the lease
// manager, through acquireLease, which also extends a lease near its end.
// This keeps steady-state forwarding free of manager round trips.
func (c *Client) routeFor(ctx context.Context, dir types.Ino) (*ledDir, rpc.Addr, error) {
	if ld := c.ledEntry(dir); ld != nil && ld.lease.Load().Serves(c.env.Now()) {
		return ld, "", nil
	}
	c.mu.Lock()
	if addr, ok := c.remote[dir]; ok {
		c.mu.Unlock()
		return nil, addr, nil
	}
	c.mu.Unlock()
	return c.acquireLease(ctx, dir)
}

// invalidateLeader drops the cached remote-leader pointer for dir, forcing
// the next routeFor through the lease manager.
func (c *Client) invalidateLeader(dir types.Ino) {
	c.mu.Lock()
	delete(c.remote, dir)
	c.mu.Unlock()
}

// remoteLeaderHint is routeFor for callers that need an address to call
// whoever leads: when this client leads dir (or just became its leader) the
// answer is its own address, whose server serves the directory like any other
// leader's. A discovery failure is the caller's error to report: there is no
// address worth calling.
func (c *Client) remoteLeaderHint(ctx context.Context, dir types.Ino) (rpc.Addr, error) {
	ld, leader, err := c.routeFor(ctx, dir)
	if ld != nil {
		leader = c.addr
	}
	return leader, err
}

// forward is the one way an operation reaches the leader of dir (paper
// §III-B). Each attempt checks ctx, routes (routeFor), and either finds this
// client leading — it returns the ledDir and the caller runs the operation
// on its own metatable — or sends req to the leader and rehydrates the
// errno of the answer. A stale route or pushback, from the fabric or in the
// answer, goes to shouldRetry, which decides whether to go round again; any
// other outcome is final. The leader's answer is returned even when it
// carries an error, next to that error.
//
// sp is the operation's span when this call is the operation's own routing
// decision: it is tagged with dir and the route taken. Steps of path
// resolution and data-lease calls pass nil. req is boxed only on the remote
// branch, so an operation served locally pays nothing for being forwardable.
func forward[R response, Q any](ctx context.Context, c *Client, sp *obs.Span, dir types.Ino, req Q) (*ledDir, R, error) {
	var none R
	sp.SetDir(dir)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, none, err
		}
		ld, leader, err := c.routeFor(ctx, dir)
		if err != nil {
			return nil, none, err
		}
		if ld != nil {
			sp.SetRoute(obs.RouteLocal)
			return ld, none, nil
		}
		sp.SetRoute(obs.RouteRemote)
		msg := any(req)
		if m, _ := describe(msg); m.namespace {
			c.stats.RemoteMetaOps.Add(1)
		}
		var ans R
		resp, err := c.callLeader(ctx, leader, dir, msg)
		if err != nil {
			err = fmt.Errorf("core: forwarded op: %w", err)
		} else {
			ans, err = answer[R](resp)
		}
		if !c.shouldRetry(ctx, dir, err, attempt) {
			return nil, ans, err
		}
	}
}

// acquireLease obtains (or extends) the lease for dir, building the
// metatable when this client becomes a fresh leader. It refuses outright on
// a closed (or crashed) client: the leaseKeeper calls it directly, and a
// crashed client must never extend — or re-take — a lease. A cancelled or
// expired ctx stops the wait loop before the next manager round trip.
//
// Acquisitions and releases of one directory by this client run one at a
// time (serialize). The manager lets a recovering holder extend its lease in
// place, so a second acquisition answered during the first one's recovery
// would serve the directory from the table that recovery is about to replace,
// and log into the journal recovery resets: an acknowledged create would be
// lost. One that waited uses what the other installed.
func (c *Client) acquireLease(ctx context.Context, dir types.Ino) (*ledDir, rpc.Addr, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, "", fmt.Errorf("core: client closed: %w", types.ErrIO)
	}
	prev := c.ledEntry(dir)
	defer c.serialize(dir)()
	if ld := c.ledEntry(dir); ld != nil && ld != prev && ld.lease.Load().Serves(c.env.Now()) {
		return ld, "", nil
	}
	c.stats.LeaseAcquires.Add(1)
	// The manager's quiesce window after its own restart affects every
	// directory and comes with a firm retry-after hint, so those waits get
	// their own (larger) allowance instead of consuming acquire retries.
	quiesceWaits := 0
	// taken is a directory this call has recovered and loaded but not
	// installed, because the takeover ran its lease past serves: the
	// manager is asked again, and only its re-grant of the same chain in place
	// (nobody led the directory in between) puts the table to use.
	var taken *ledDir
	var chain uint64 // the lease ID taken was built under
	defer func() {
		if taken != nil {
			c.abandon(dir, taken)
		}
	}()
	for attempt := 0; attempt < c.opts.AcquireRetries; {
		if err := ctx.Err(); err != nil {
			return nil, "", fmt.Errorf("core: lease acquire for %s: %w", dir.Short(), err)
		}
		sent := c.env.Now()
		resp, err := c.lm.Acquire(ctx, dir)
		if err != nil {
			// A lost or timed-out manager round trip is not fatal: burn one
			// acquire attempt and ask again. The retry stays inside the
			// operation's span, so a flaky link shows up as a retry count on
			// one trace, not a failed op (or a second trace).
			if errors.Is(err, types.ErrTimedOut) && attempt < c.opts.AcquireRetries-1 {
				obs.SpanFrom(ctx).AddRetry()
				attempt++
				c.retryBackoff(attempt)
				continue
			}
			return nil, "", fmt.Errorf("core: lease acquire: %w", err)
		}
		if taken != nil && !(resp.Granted && resp.SameLeader && resp.LeaseID == chain) {
			c.abandon(dir, taken) // any other answer: the table is stale, follow the answer
			taken = nil
		}
		switch {
		case resp.Granted:
			if taken == nil {
				if taken, err = c.becomeLeader(ctx, dir, resp, sent); err != nil {
					return nil, "", err
				}
				chain = resp.LeaseID
			} else {
				c.mu.Lock()
				taken.grant(sent, resp.Period, resp.LeaseID) // the same chain, re-granted in place
				c.mu.Unlock()
			}
			if installed, err := c.install(dir, taken); err != nil {
				return nil, "", err
			} else if installed {
				ld := taken
				taken = nil
				return ld, "", nil
			}
			// Recovery and load outlasted the lease that permits them. Serving
			// now would be serving from a lapsed lease, and past the manager's
			// grace another client may lead already. Each takeover spends an
			// attempt, so a directory that cannot be loaded within a lease
			// period (DESIGN.md §5) ends in ETIMEDOUT, not in a reload loop.
			attempt++
		case resp.Redirect:
			// If we believed we led this directory, that leadership is gone:
			// drop the stale table (its journal was flushed at the last
			// clean hand-off or will be recovered by the new leader).
			c.mu.Lock()
			stale := c.unlead(dir)
			c.remote[dir] = resp.Leader
			c.mu.Unlock()
			if stale != nil {
				stale.table.Stop()
			}
			c.jrnl.DropDir(dir)
			return nil, resp.Leader, nil
		case resp.Wait:
			if resp.Quiesce {
				quiesceWaits++
				if quiesceWaits > 4*c.opts.AcquireRetries {
					return nil, "", fmt.Errorf("core: lease manager quiescing for %s: %w", dir.Short(), types.ErrTimedOut)
				}
			} else {
				attempt++
			}
			delay := resp.RetryAfter
			if delay < time.Millisecond {
				delay = time.Millisecond
			}
			c.hAcquireWait.Observe(delay)
			c.env.Sleep(delay)
		default:
			// A denial: a shard asked about a directory its ring routes to
			// another shard answers so, and asking again would not help.
			return nil, "", fmt.Errorf("core: lease denied for %s: %w", dir.Short(), types.ErrBusy)
		}
	}
	return nil, "", fmt.Errorf("core: lease acquire retries exhausted for %s: %w", dir.Short(), types.ErrTimedOut)
}

// serialize waits until no other acquisition or release of dir by this
// client is in progress, and returns the function that ends the caller's.
func (c *Client) serialize(dir types.Ino) (done func()) {
	c.mu.Lock()
	a := c.acquiring[dir]
	if a == nil {
		a = &acquisition{mu: sim.NewMutex(c.env)}
		c.acquiring[dir] = a
	}
	a.refs++
	c.mu.Unlock()
	a.mu.Lock()
	return func() {
		a.mu.Unlock()
		c.mu.Lock()
		if a.refs--; a.refs == 0 {
			delete(c.acquiring, dir)
		}
		c.mu.Unlock()
	}
}

// abandon stops the table of ld, which this call built for dir, unless it is
// the one this client leads dir from.
func (c *Client) abandon(dir types.Ino, ld *ledDir) {
	if c.ledEntry(dir) != ld {
		ld.table.Stop()
	}
}

// becomeLeader builds leadership state after a lease granted to a request
// sent at sent: it runs journal recovery if required and (re)builds the
// metadata table unless the manager confirmed our copy is still current. The
// directory it returns is not yet served from: install publishes it, if its
// lease still allows.
func (c *Client) becomeLeader(ctx context.Context, dir types.Ino, grant lease.AcquireResp, sent time.Duration) (*ledDir, error) {
	var rep journal.Report
	if grant.NeedRecovery {
		c.crashHit(crashpoint.RecoveryPreReplay)
		rsp := c.tracer.StartChild(rpc.MetaFrom(ctx).Span, "journal.recover", "")
		rsp.SetDir(dir)
		var err error
		rep, err = c.jrnl.Recover(dir)
		rsp.End(err)
		if err != nil {
			// A dead process is silent: if the failure is our own crash, do
			// not release — the lease lapses and the successor recovers. A
			// live client renounces uncleanly so the manager re-gates the
			// directory behind another recovery grant.
			c.mu.Lock()
			closed := c.closed
			c.mu.Unlock()
			if !closed {
				_ = c.lm.Release(ctx, dir, grant.LeaseID, false)
			}
			return nil, fmt.Errorf("core: recovery of %s: %w", dir.Short(), err)
		}
		c.crashHit(crashpoint.RecoveryPostReplay)
		sent = c.env.Now()
		done, err := c.lm.RecoveryDone(ctx, dir, grant.LeaseID)
		if err != nil || !done.OK {
			return nil, fmt.Errorf("core: recovery handshake for %s failed: %w", dir.Short(), types.ErrIO)
		}
		grant.Period = done.Period
	}

	c.mu.Lock()
	if c.closed {
		// The client crashed (or closed) while the grant was in flight: a
		// dead process cannot serve the directory, and it must not release
		// either — it is silent, so the lease lapses and the successor runs
		// recovery.
		c.mu.Unlock()
		return nil, fmt.Errorf("core: client closed: %w", types.ErrIO)
	}
	if ld := c.ledEntry(dir); ld != nil && grant.SameLeader {
		// Extension of a lease we already hold: keep the table.
		ld.grant(sent, grant.Period, grant.LeaseID)
		c.mu.Unlock()
		return ld, nil
	}
	c.mu.Unlock()

	// Fresh leadership (or re-grant after release): load the metadata table
	// from the object store. The paper's SameLeader shortcut only helps when
	// the client also kept its table; after Close we always reload. The table
	// comes back holding the directory inode and the dentry block; its child
	// inodes load behind it (metatable.LoadWith), and one that fails
	// verification then degrades the directory as a bad block does here.
	dropped := func(lost int) {
		if lost == 1 {
			c.obsReg.Counter("integrity.degraded").Inc()
		}
		c.obsReg.Counter("integrity.degraded.entries.lost").Inc()
	}
	tbl, _, err := c.jrnl.LoadTable(dir, false, dropped)
	if err != nil && errors.Is(err, types.ErrIntegrity) {
		// The checkpointed state is rotten but the lease is ours: serve the
		// directory read-only from whatever still verifies rather than
		// failing every operation. The scrubber repairs the objects; the
		// next leadership change reloads cleanly.
		var lost int
		dsp := c.tracer.StartChild(rpc.MetaFrom(ctx).Span, "integrity.degraded", dir.Short())
		dsp.SetDir(dir)
		tbl, lost, err = c.jrnl.LoadTable(dir, true, dropped)
		dsp.End(err)
		if err == nil && lost > 0 {
			c.obsReg.Counter("integrity.degraded").Inc()
			c.obsReg.Counter("integrity.degraded.entries.lost").Add(int64(lost))
		}
	}
	if err != nil {
		_ = c.lm.Release(ctx, dir, grant.LeaseID, true)
		return nil, fmt.Errorf("core: build metatable for %s: %w", dir.Short(), err)
	}
	// Check our own access to the directory (paper: release and report a
	// permission error if the leader-to-be cannot access it).
	if err := tbl.Dir().Access(c.opts.Cred, types.MayExec); err != nil {
		tbl.Stop()
		_ = c.lm.Release(ctx, dir, grant.LeaseID, true)
		return nil, fmt.Errorf("core: access %s: %w", dir.Short(), err)
	}
	ld := &ledDir{opMu: sim.NewMutex(c.env), table: tbl, leases: make(leaseTable), renames: make(map[uint64]journal.Rename)}
	ld.grant(sent, grant.Period, grant.LeaseID)
	c.adoptRenames(ld, rep.Pending)
	return ld, nil
}

// install publishes ld as the directory this client leads, provided its
// lease still serves operations (routeFor). Nothing of unbounded length lies
// between this check and the operation that asked for the lease.
func (c *Client) install(dir types.Ino, ld *ledDir) (bool, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false, fmt.Errorf("core: client closed: %w", types.ErrIO)
	}
	l := ld.lease.Load()
	if !l.Serves(c.env.Now()) {
		c.mu.Unlock()
		return false, nil
	}
	old := c.ledEntry(dir)
	c.led.Store(dir, ld)
	delete(c.remote, dir)
	if l.Period() < c.keepPeriod {
		c.keepPeriod = l.Period()
		c.env.Go(c.leaseKeeper)
	}
	c.mu.Unlock()
	if old != nil && old != ld {
		old.table.Stop()
	}
	return true, nil
}

// crashHit announces a core-side crash site (recovery phases).
func (c *Client) crashHit(site crashpoint.Site) {
	c.opts.Crash.Hit(site)
}

// fsyncDir makes dir's acknowledged metadata durable — the externalization
// barrier of the async commit path. The metatable epoch short-circuits a
// quiescent directory: if no mutation was acknowledged since the last
// successful barrier, there is nothing new to make durable and the journal
// is not consulted. Otherwise it waits on the journal durability watermark
// (not the checkpoint): a durable record is recoverable by replay, which is
// all fsync promises.
func (c *Client) fsyncDir(dir types.Ino, ld *ledDir) error {
	epoch := ld.table.Epoch()
	c.mu.Lock()
	durable := ld.durableEpoch
	c.mu.Unlock()
	if epoch == durable {
		return nil
	}
	if err := c.jrnl.Barrier(dir); err != nil {
		return err
	}
	c.mu.Lock()
	if epoch > ld.durableEpoch {
		ld.durableEpoch = epoch
	}
	c.mu.Unlock()
	return nil
}

// Leads reports whether this client currently holds the lease of dir. The
// chaos harness uses it to decide how strong an acknowledgement was: Fsync
// only flushes journals this client owns, so a nil Fsync on a remote-led
// directory promises nothing about durability.
func (c *Client) Leads(dir types.Ino) bool {
	_, ok := c.ledDirFor(dir)
	return ok
}

// ledDirFor returns the ledDir if this client leads dir and its lease has
// not lapsed (without acquiring). It takes no lock.
func (c *Client) ledDirFor(dir types.Ino) (*ledDir, bool) {
	ld := c.ledEntry(dir)
	if ld == nil || !ld.lease.Load().Live(c.env.Now()) {
		return nil, false
	}
	return ld, true
}

// ledEntry is the ledDir of dir in the led set, whatever its lease, or nil.
func (c *Client) ledEntry(dir types.Ino) *ledDir {
	v, _ := c.led.Load(dir)
	ld, _ := v.(*ledDir)
	return ld
}

// unlead drops dir from the led set and returns what it held there, or nil.
// The caller holds c.mu.
func (c *Client) unlead(dir types.Ino) *ledDir {
	v, _ := c.led.LoadAndDelete(dir)
	ld, _ := v.(*ledDir)
	return ld
}

// unleadAll empties the led set and returns what it held. The caller holds
// c.mu.
func (c *Client) unleadAll() map[types.Ino]*ledDir {
	set := c.ledSet()
	for dir := range set {
		c.led.Delete(dir)
	}
	return set
}

// AwaitLoad waits until the table of dir, if this client leads dir, holds
// every child its background loader could fetch, and reports whether this
// client leads dir. A leader serves before that; the takeover curve times both.
func (c *Client) AwaitLoad(dir types.Ino) bool {
	ld, ok := c.ledDirFor(dir)
	if ok {
		ld.table.Await()
	}
	return ok
}

// ReleaseDir flushes and gives up leadership of dir, e.g. when an archiving
// job finishes a directory. This is the strong (commit + checkpoint) flush:
// a clean release tells the next leader it may load the metatable without
// journal replay, so nothing may be left in the journal. Only fsync-style
// barriers are durability-only; handoff never is. A prepared rename the
// table still holds is in the journal whatever the flush did, so its release
// is unclean: the next leader recovers and holds it.
//
// A release waits for an acquisition of dir in progress, such as the keeper's
// extension: one answered after the release would reload and serve the
// directory while the manager thinks it free, and grant it to another client.
// A mutation of the table that starts after the release refuses (writable).
func (c *Client) ReleaseDir(dir types.Ino) error {
	defer c.serialize(dir)()
	c.mu.Lock()
	ld := c.unlead(dir)
	c.mu.Unlock()
	if ld == nil {
		return nil
	}
	ld.opMu.Lock()
	ld.released = true
	ld.opMu.Unlock()
	ld.table.Stop()
	err := c.jrnl.Flush(dir)
	c.jrnl.DropDir(dir)
	c.mu.Lock()
	clean := err == nil && len(ld.renames) == 0
	c.mu.Unlock()
	_ = c.lm.Release(context.Background(), dir, ld.lease.Load().ID(), clean)
	return err
}

// retryBackoff pauses before re-resolving leadership: a freshly granted
// leader may still be loading its metadata table when redirected clients
// arrive (thundering herd on a new directory).
func (c *Client) retryBackoff(attempt int) {
	c.env.Sleep(time.Duration(1<<uint(attempt)) * 500 * time.Microsecond)
}

// qosNow maps the environment clock onto the wall-clock origin the qos
// primitives expect; only differences matter, so the origin is arbitrary.
func (c *Client) qosNow() time.Time { return time.Unix(0, int64(c.env.Now())) }

// shouldRetry decides whether forward may go around again after err:
// leadership moves (ESTALE) re-resolve after the standard backoff, and typed
// EAGAIN pushback — a leader's admission refusal — retries after honoring
// the server's retry-after hint. After maxOpRetries the error surfaces to the
// caller instead of feeding a retry storm.
func (c *Client) shouldRetry(ctx context.Context, dir types.Ino, err error, attempt int) bool {
	if err == nil || attempt >= maxOpRetries || ctx.Err() != nil {
		return false
	}
	stale := errors.Is(err, types.ErrStale)
	if !stale && !errors.Is(err, types.ErrAgain) {
		return false // neither a moved leader nor pushback: final
	}
	obs.SpanFrom(ctx).AddRetry()
	if stale {
		c.invalidateLeader(dir)
		c.retryBackoff(attempt)
		return true
	}
	c.cPushbackHonors.Inc()
	c.stats.PushbackHonored.Add(1)
	if d, ok := types.RetryAfter(err); ok && d > 0 {
		c.env.Sleep(d)
	} else {
		c.retryBackoff(attempt)
	}
	return true
}

// errnoWrap adds operation context while preserving errors.Is matching.
func errnoWrap(op, path string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("arkfs %s %s: %w", op, path, err)
}

// isNotExist is a local convenience.
func isNotExist(err error) bool { return errors.Is(err, types.ErrNotExist) }
