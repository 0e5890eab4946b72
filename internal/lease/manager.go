package lease

import (
	"context"
	"errors"
	"fmt"
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

	// Elastic-cluster state. ring is the shard's view of the membership
	// (zero for an unsharded manager); gaining freezes newly-won territory
	// until the cluster confirms the handoff transfers are settled; tombstone
	// marks a removed shard that only answers ring redirects.
	ring      Ring
	gaining   *Ring // previous ring while a gain is in flight
	tombstone bool

	// Grant-table persistence (failover). When store is set, every chain
	// mutation — grant, release, recovery transition, handoff — is snapshotted
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
	cRingRedirects                     *obs.Counter
	cHandoffOut, cHandoffIn            *obs.Counter
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
	// Ring is the shard's initial membership view (zero for unsharded). It is
	// installed before the server listens, so a shard never grants on a
	// directory the ring assigns elsewhere.
	Ring Ring
	// Store, when non-nil, persists the grant table as one CRC-sealed object
	// (SnapshotKey(Addr)) and resumes from it on construction.
	Store objstore.Store
	// Obs, when non-nil, exposes the manager's counters (acquire/extension/
	// redirect/release/recovery/wait/ring/handoff/persist) in the registry at
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
	m.cRingRedirects = opts.Obs.Counter("lease.ring.redirects")
	m.cHandoffOut = opts.Obs.Counter("lease.handoff.sent")
	m.cHandoffIn = opts.Obs.Counter("lease.handoff.received")
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
	// show up inside the operation that paid for them. The caller's ring
	// epoch rides the rpc envelope, not the message.
	// The caller's tenant and this request's slot wait ride the envelope
	// too; stamping them on the manager span attributes shard queueing to the
	// tenant that paid for it.
	meta := rpc.MetaFrom(ctx)
	tenant, epoch := meta.Tenant, meta.Epoch
	span := func(op string, dir types.Ino) *obs.Span {
		sp := m.tracer.StartChild(meta.Span, op, "")
		sp.SetTenant(tenant)
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
	case HandoffReq:
		sp = span("lease.Handoff", types.Ino{})
	default:
		return AcquireResp{} // unknown message: deny
	}
	resp := m.decide(req, epoch)
	sp.End(nil)
	return resp
}

// decide answers one request under mu: the ring check, then the rule. A
// changed table is persisted before the answer leaves.
func (m *Manager) decide(req any, epoch uint64) any {
	m.mu.Lock()
	resp, v := m.decideLocked(req, epoch, m.env.Now())
	var snap []byte
	var seq uint64
	if v == changed {
		snap, seq = m.persistLocked()
	}
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return resp
}

func (m *Manager) decideLocked(req any, epoch uint64, now time.Duration) (any, verdict) {
	switch r := req.(type) {
	case AcquireReq:
		m.cAcquires.Inc()
		if redirect, wait := m.ringCheckLocked(r.Dir, epoch); redirect {
			m.cRingRedirects.Inc()
			return AcquireResp{StaleRing: true, Ring: m.ring}, kept
		} else if wait {
			m.cWaits.Inc()
			return AcquireResp{Wait: true, Quiesce: true, RetryAfter: m.period / 16}, kept
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
		if redirect, wait := m.ringCheckLocked(r.Dir, epoch); redirect || wait {
			m.cRingRedirects.Inc()
			return ReleaseResp{StaleRing: true, Ring: m.ring}, kept
		}
		return m.rule.release(r.Dir, r.Client, r.LeaseID, r.Clean, now)
	case RecoveryDoneReq:
		if redirect, wait := m.ringCheckLocked(r.Dir, epoch); redirect || wait {
			m.cRingRedirects.Inc()
			return RecoveryDoneResp{StaleRing: true, Ring: m.ring}, kept
		}
		return m.rule.recoveryDone(r.Dir, r.Client, r.LeaseID, now)
	case HandoffReq:
		// Grants for an older epoch than the shard's view come from a
		// superseded resharding.
		if !m.ring.IsZero() && r.Epoch < m.ring.Epoch {
			return HandoffResp{}, kept
		}
		n := m.rule.accept(r.Grants, now)
		m.cHandoffIn.Add(int64(n))
		return HandoffResp{OK: true, Accepted: n}, changed
	}
	return nil, kept
}

// ringCheckLocked classifies a request against the shard's membership view:
// redirect (the ring assigns dir elsewhere, or this shard is a tombstone) or
// wait (the caller knows a newer ring than this shard, or the shard is still
// importing a gained range). Both are cluster-wide conditions, never grants.
func (m *Manager) ringCheckLocked(dir types.Ino, reqEpoch uint64) (redirect, wait bool) {
	if m.tombstone {
		return true, false
	}
	if m.ring.IsZero() {
		return false, false
	}
	if reqEpoch > uint64(m.ring.Epoch) {
		// The client has seen a membership change this shard hasn't: do not
		// grant under a ring known to be stale, and do not push ours back.
		return false, true
	}
	if m.ring.RouteAddr(dir) != m.ringAddr {
		return true, false
	}
	if m.gaining != nil && m.gaining.RouteAddr(dir) != m.ringAddr {
		// Newly-gained territory with handoff transfers still in flight:
		// granting now could bypass a live grant queued in a HandoffReq.
		return false, true
	}
	return false, false
}

// persistLocked encodes the grant table when persistence is on. Must be
// called with mu held, after the mutation; the caller hands the result to
// maybePersist outside the lock, before sending the response.
func (m *Manager) persistLocked() ([]byte, uint64) {
	if m.store == nil || m.tombstone {
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

// StartGain freezes the territory this shard is about to win: nr is
// installed as the membership view, and directories that prev did not assign
// to this shard answer short waits until FinishGain. For a brand-new shard
// prev contains everything-but-me, so its whole range is frozen while the
// losing shards' HandoffReqs drain in.
func (m *Manager) StartGain(prev, nr Ring) {
	m.mu.Lock()
	p := prev
	m.ring = nr
	m.gaining = &p
	m.mu.Unlock()
}

// FinishGain unfreezes the gained territory. lost carries a suspicion record,
// its bound as time left, for every range whose transfer failed or whose
// loser had forgotten chains; directories in those ranges pay the grace
// stall, everything else serves from the transferred chains.
func (m *Manager) FinishGain(lost []suspect) {
	m.mu.Lock()
	m.gaining = nil
	m.rule.suspect(lost, m.env.Now())
	snap, seq := m.persistLocked()
	m.mu.Unlock()
	m.maybePersist(snap, seq)
}

// BeginHandoff installs nr and extracts the chains of every directory this
// shard loses under it, grouped by gaining shard. From the moment it returns,
// moved directories answer StaleRing redirects here; the extracted grants
// must reach their new owners (HandoffReq) or those directories pay the
// grace stall there. The second return value carries the suspicion records
// the gainers must inherit (grants.export).
func (m *Manager) BeginHandoff(nr Ring) (map[rpc.Addr][]DirGrant, []suspect) {
	m.mu.Lock()
	if !m.ring.IsZero() && nr.Epoch <= m.ring.Epoch {
		m.mu.Unlock()
		return nil, nil
	}
	prev := m.ring
	m.ring = nr
	moved, inherited := m.rule.export(prev, nr, m.ringAddr, m.env.Now())
	for _, gs := range moved {
		m.cHandoffOut.Add(int64(len(gs)))
	}
	snap, seq := m.persistLocked()
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return moved, inherited
}

// Tombstone converts a removed shard into a redirect-only stub: it keeps
// listening so clients with a stale ring learn the final membership instead
// of timing out, but never grants again. Its persisted snapshot is deleted —
// the live state moved to the gaining shards.
func (m *Manager) Tombstone(final Ring) {
	m.mu.Lock()
	m.tombstone = true
	m.ring = final
	clear(m.rule.dirs)
	store, key := m.store, m.snapKey
	m.mu.Unlock()
	if store != nil {
		_ = store.Delete(key)
	}
}

// Client is the client-side stub of the lease protocol. With an elastic
// cluster, Router picks the shard per directory and absorbs the ring updates
// carried by StaleRing redirects; otherwise every request goes to Mgr.
type Client struct {
	Net    *rpc.Network
	Mgr    rpc.Addr
	Self   rpc.Addr
	Router Router
}

// maxRingHops bounds how many ring redirects one logical call follows before
// surfacing a retryable error; membership changes settle in one or two.
const maxRingHops = 6

func (c *Client) target(dir types.Ino) (rpc.Addr, uint64) {
	if c.Router != nil {
		a, e := c.Router.Route(dir)
		return a, uint64(e)
	}
	return c.Mgr, 0
}

// hop stamps ctx's envelope with the routing epoch for one attempt.
func hop(ctx context.Context, epoch uint64) context.Context {
	if epoch == 0 {
		return ctx
	}
	m := rpc.MetaFrom(ctx)
	m.Epoch = epoch
	return rpc.WithMeta(ctx, m)
}

// stale handles one StaleRing response: install the newer ring, or — when
// the shard's ring is not actually newer (it is mid-resharding itself) —
// pause briefly so the membership change can settle.
func (c *Client) stale(ring Ring, epoch uint64) {
	if c.Router != nil && uint64(ring.Epoch) > epoch {
		c.Router.Update(ring)
		return
	}
	c.Net.Env().Sleep(time.Millisecond)
}

// call sends req about dir to the shard that owns it, following StaleRing
// redirects: the newer ring is installed and the request goes again.
func call[R any](ctx context.Context, c *Client, dir types.Ino, req any) (R, error) {
	var none R
	for h := 0; h < maxRingHops; h++ {
		addr, epoch := c.target(dir)
		resp, err := c.Net.CallFromCtx(hop(ctx, epoch), c.Self, addr, req)
		if err != nil {
			return none, err
		}
		var ring Ring
		var stale bool
		switch r := resp.(type) {
		case AcquireResp:
			ring, stale = r.Ring, r.StaleRing
		case ReleaseResp:
			ring, stale = r.Ring, r.StaleRing
		case RecoveryDoneResp:
			ring, stale = r.Ring, r.StaleRing
		}
		if !stale {
			r, _ := resp.(R)
			return r, nil
		}
		c.stale(ring, epoch)
	}
	return none, fmt.Errorf("lease: ring redirect loop for %s: %w", dir.Short(), types.ErrTimedOut)
}

// Acquire requests (or extends) the lease of dir. The caller's trace
// identity in ctx rides to the manager so its handling shows as a child
// span of the acquiring operation; the router's ring epoch rides the rpc
// envelope, and stale-ring redirects are followed transparently.
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
