package lease

import (
	"context"
	"errors"
	"sync"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// Manager is one lease shard (or, ringless, the single cluster manager).
// Acquiring and extending are cheap map operations (the paper found a single
// manager is not a bottleneck); expiries are detected lazily at the next
// acquire rather than with timers.
type Manager struct {
	env         sim.Env
	net         *rpc.Network
	addr        rpc.Addr
	ringAddr    rpc.Addr // identity in Ring.Members (Advertise, default addr)
	period      time.Duration
	serviceCost time.Duration
	server      *rpc.Server

	mu   sync.Mutex
	rule *grants // every grant decision; guarded by mu

	// ring is the deployment's shard membership (zero for an unsharded
	// manager), fixed at construction: the shard serves only the directories
	// it routes to ringAddr.
	ring Ring

	// Grant-table persistence (failover). When store is set, every chain
	// mutation — grant, release, recovery transition — is snapshotted
	// to one sealed object before the response is sent, so a restarted shard
	// resumes its grants instead of stalling every directory behind the
	// amnesia grace. Expiries, and so extensions, are not persisted: the
	// resume path counts every lease one period from its own start.
	store    objstore.Store
	snapKey  string
	pmu      *sim.Mutex // serializes snapshot PUTs; store I/O blocks in env time
	snapSeq  uint64     // bumped under mu by every persist-worthy mutation
	snapWrit uint64     // highest seq durably written (under pmu)

	// Registry counters (nil-safe). Named counters are shared across sharded
	// managers attached to the same registry, so they aggregate cluster-wide.
	cAcquires, cExtensions, cRedirects *obs.Counter
	cReleases, cRecoveries, cWaits     *obs.Counter
	cPersists, cPersistErrs, cResumed  *obs.Counter
	tracer                             *obs.Tracer // nil without Options.Obs
}

// Options configures a Manager.
type Options struct {
	Addr    rpc.Addr      // network address to listen on (default "leasemgr")
	Period  time.Duration // lease duration (default DefaultPeriod)
	Workers int           // requests served at once; the rest wait (default 4)
	// Advertise is this shard's identity in Ring.Members when it differs from
	// Addr — a bridged deployment lists dialable "tcp!host:port" members in
	// the ring while each shard listens under a local name (a manager cannot
	// listen at a tcp! address: the bridge would dial itself). Every
	// ring-ownership decision compares against Advertise; default Addr.
	Advertise rpc.Addr
	// ServiceCost is the simulated CPU charge per handled request, serialized
	// over the Workers pool. Zero (the default) models an infinitely fast
	// server; scalability experiments set it so a single manager saturates
	// the way a real lease server's CPU does, which is what ring sharding is
	// for. Chaos and correctness tests leave it zero.
	ServiceCost time.Duration
	// Restarted: begin in the post-crash state. Without a persisted snapshot
	// this refuses grants for one lease period so stale leaders can expire
	// (paper §III-E-2); with one, known directories resume immediately and
	// only the unknown residue is conservative.
	Restarted bool
	// Ring is the deployment's shard membership (zero for unsharded). A shard
	// denies every request about a directory the ring assigns elsewhere.
	Ring Ring
	// Store, when non-nil, persists the grant table as one CRC-sealed object
	// (SnapshotKey(Addr)) and resumes from it on construction.
	Store objstore.Store
	// Obs, when non-nil, exposes the manager's counters (acquire/extension/
	// redirect/release/recovery/wait/persist) in the registry at
	// snapshot time and enables the manager's trace ring: every handled
	// request becomes a child span under the caller's trace.
	Obs *obs.Registry
}

// addrSeed derives a deterministic trace seed from an address: FNV-1a, so a
// replayed deployment mints the same manager span IDs without configuration.
func addrSeed(addr rpc.Addr) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// NewManager starts a lease manager on net.
func NewManager(net *rpc.Network, opts Options) *Manager {
	if opts.Addr == "" {
		opts.Addr = "leasemgr"
	}
	if opts.Period <= 0 {
		opts.Period = DefaultPeriod
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.Advertise == "" {
		opts.Advertise = opts.Addr
	}
	m := &Manager{
		env:         net.Env(),
		net:         net,
		addr:        opts.Addr,
		ringAddr:    opts.Advertise,
		period:      opts.Period,
		serviceCost: opts.ServiceCost,
		rule:        newGrants(opts.Period),
		ring:        opts.Ring,
	}
	m.cAcquires = opts.Obs.Counter("lease.acquires")
	m.cExtensions = opts.Obs.Counter("lease.extensions")
	m.cRedirects = opts.Obs.Counter("lease.redirects")
	m.cReleases = opts.Obs.Counter("lease.releases")
	m.cRecoveries = opts.Obs.Counter("lease.recoveries")
	m.cWaits = opts.Obs.Counter("lease.waits")
	m.cPersists = opts.Obs.Counter("lease.persist.writes")
	m.cPersistErrs = opts.Obs.Counter("lease.persist.errors")
	m.cResumed = opts.Obs.Counter("lease.resume.dirs")
	if opts.Store != nil {
		m.store = opts.Store
		m.snapKey = SnapshotKey(opts.Addr)
		m.pmu = sim.NewMutex(m.env)
	}
	if !m.resume() && opts.Restarted {
		m.rule.restart(m.env.Now())
	}
	if opts.Obs != nil {
		m.tracer = obs.NewTracer(0, m.env.Now)
		m.tracer.SetProc(string(opts.Addr))
		m.tracer.SetSeed(addrSeed(opts.Addr))
		opts.Obs.Func("obs.trace.spans", m.tracer.Total)
	}
	m.server = net.ListenCtx(opts.Addr, opts.Workers, m.handle)
	return m
}

// resume loads the persisted grant table, if any. It returns true when a
// snapshot existed: a valid one is resumed, so the shard serves known
// directories at once (no quiesce) and treats only the unknown residue as
// crashed; one it cannot read or trust puts it in the state of a restart that
// lost everything.
func (m *Manager) resume() bool {
	if m.store == nil {
		return false
	}
	raw, err := m.store.Get(m.snapKey)
	if errors.Is(err, types.ErrNotExist) {
		return false // first boot of this shard
	}
	var snap *grants
	if err == nil {
		snap, err = decodeSnapshot(raw)
	}
	if err != nil {
		m.rule.restart(m.env.Now())
		m.cPersistErrs.Inc()
		return true
	}
	m.rule.resume(snap, m.env.Now())
	m.cResumed.Add(int64(len(snap.dirs)))
	return true
}

// SnapshotKey is the object-store key of a shard's persisted grant table.
// The "lm:" prefix sits outside the PRT namespace; fsck recognizes it as
// control-plane state.
func SnapshotKey(addr rpc.Addr) string { return SnapshotPrefix + string(addr) }

// SnapshotPrefix prefixes every persisted grant-table object.
const SnapshotPrefix = "lm:"

// Tracer returns the manager's span ring (nil without Options.Obs; the nil
// tracer is a valid no-op sink).
func (m *Manager) Tracer() *obs.Tracer { return m.tracer }

// Addr returns the manager's network address.
func (m *Manager) Addr() rpc.Addr { return m.addr }

// Period returns the lease duration.
func (m *Manager) Period() time.Duration { return m.period }

// Close stops the manager's server. State is retained so a subsequent
// NewManager with Restarted simulates a manager crash + restart.
func (m *Manager) Close() { m.server.Close() }

func (m *Manager) handle(ctx context.Context, req any) any {
	// Each handled request is a child span under the caller's trace (or a
	// local root when the caller is untraced), so lease waits and redirects
	// show up inside the operation that paid for them. This request's slot
	// wait rides the rpc envelope; the span records it as shard queueing.
	meta := rpc.MetaFrom(ctx)
	span := func(op string, dir types.Ino) *obs.Span {
		sp := m.tracer.StartChild(meta.Span, op, "")
		sp.SetWait(meta.Wait)
		sp.SetDir(dir)
		return sp
	}
	if m.serviceCost > 0 {
		// Charged inside the server's slot: Workers requests are serviced
		// concurrently, the rest queue — a real server's CPU, not a delay.
		m.env.Sleep(m.serviceCost)
	}
	var sp *obs.Span
	switch r := req.(type) {
	case AcquireReq:
		sp = span("lease.Acquire", r.Dir)
	case ReleaseReq:
		sp = span("lease.Release", r.Dir)
	case RecoveryDoneReq:
		sp = span("lease.RecoveryDone", r.Dir)
	default:
		return AcquireResp{} // unknown message: deny
	}
	resp := m.decide(req)
	sp.End(nil)
	return resp
}

// decide answers one request under mu: the ownership test, then the rule. A
// changed table is persisted before the answer leaves.
func (m *Manager) decide(req any) any {
	m.mu.Lock()
	resp, v := m.decideLocked(req, m.env.Now())
	var snap []byte
	var seq uint64
	if v == changed {
		snap, seq = m.persistLocked()
	}
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return resp
}

func (m *Manager) decideLocked(req any, now time.Duration) (any, verdict) {
	// A request about a directory the ring routes elsewhere comes from a
	// client configured with another ring: the zero answer denies it, and
	// the client surfaces the denial instead of retrying.
	switch r := req.(type) {
	case AcquireReq:
		m.cAcquires.Inc()
		if !m.owns(r.Dir) {
			return AcquireResp{}, kept
		}
		resp, v := m.rule.acquire(r.Dir, r.Client, now)
		switch {
		case v == extended:
			m.cExtensions.Inc()
		case resp.NeedRecovery:
			m.cRecoveries.Inc()
		case resp.Redirect:
			m.cRedirects.Inc()
		case resp.Wait:
			m.cWaits.Inc()
		}
		return resp, v
	case ReleaseReq:
		m.cReleases.Inc()
		if !m.owns(r.Dir) {
			return ReleaseResp{}, kept
		}
		return m.rule.release(r.Dir, r.Client, r.LeaseID, r.Clean, now)
	case RecoveryDoneReq:
		if !m.owns(r.Dir) {
			return RecoveryDoneResp{}, kept
		}
		return m.rule.recoveryDone(r.Dir, r.Client, r.LeaseID, now)
	}
	return nil, kept
}

// holding reports whether a client holds a live lease in m's table.
func (m *Manager) holding() bool {
	now := m.env.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, d := range m.rule.dirs {
		if d.Holder != "" && d.Holder != unknownHolder && now < d.Expiry {
			return true
		}
	}
	return false
}

// owns reports whether dir is this shard's: every directory is, without a
// ring.
func (m *Manager) owns(dir types.Ino) bool {
	return len(m.ring.Members) == 0 || m.ring.RouteAddr(dir) == m.ringAddr
}

// persistLocked encodes the grant table when persistence is on. Must be
// called with mu held, after the mutation; the caller hands the result to
// maybePersist outside the lock, before sending the response.
func (m *Manager) persistLocked() ([]byte, uint64) {
	if m.store == nil {
		return nil, 0
	}
	m.snapSeq++
	return encodeSnapshot(m.rule), m.snapSeq
}

// maybePersist writes one encoded snapshot, keeping write order: a snapshot
// older than the last durable one is dropped. A failed PUT is counted, not
// fatal — the residue handling of a future restart covers any grant that was
// acknowledged but never persisted.
func (m *Manager) maybePersist(snap []byte, seq uint64) {
	if snap == nil {
		return
	}
	m.pmu.Lock()
	if seq > m.snapWrit {
		if err := m.store.Put(m.snapKey, snap); err != nil {
			m.cPersistErrs.Inc()
		} else {
			m.snapWrit = seq
			m.cPersists.Inc()
		}
	}
	m.pmu.Unlock()
}

// Client is the client-side stub of the lease protocol. With a Ring, each
// request goes to the shard the ring routes its directory to; otherwise every
// request goes to Mgr.
type Client struct {
	Net  *rpc.Network
	Mgr  rpc.Addr
	Self rpc.Addr
	Ring Ring
}

// call sends req about dir to the manager that owns it.
func call[R any](ctx context.Context, c *Client, dir types.Ino, req any) (R, error) {
	to := c.Mgr
	if len(c.Ring.Members) > 0 {
		to = c.Ring.RouteAddr(dir)
	}
	resp, err := c.Net.CallFromCtx(ctx, c.Self, to, req)
	r, _ := resp.(R)
	return r, err
}

// Acquire requests (or extends) the lease of dir. The caller's trace
// identity in ctx rides to the manager so its handling shows as a child
// span of the acquiring operation.
func (c *Client) Acquire(ctx context.Context, dir types.Ino) (AcquireResp, error) {
	return call[AcquireResp](ctx, c, dir, AcquireReq{Dir: dir, Client: c.Self})
}

// Release gives the lease back; clean reports a full metadata flush.
func (c *Client) Release(ctx context.Context, dir types.Ino, id uint64, clean bool) error {
	_, err := call[ReleaseResp](ctx, c, dir, ReleaseReq{Dir: dir, LeaseID: id, Client: c.Self, Clean: clean})
	return err
}

// RecoveryDone reports a finished journal recovery and returns the renewed
// lease.
func (c *Client) RecoveryDone(ctx context.Context, dir types.Ino, id uint64) (RecoveryDoneResp, error) {
	return call[RecoveryDoneResp](ctx, c, dir, RecoveryDoneReq{Dir: dir, LeaseID: id, Client: c.Self})
}
