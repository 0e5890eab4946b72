package lease

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// ManagerStats counts lease traffic for the benchmark reports.
type ManagerStats struct {
	Acquires, Extensions, Redirects, Releases, Recoveries atomic.Int64
}

// dirState tracks one directory's lease chain.
type dirState struct {
	holder     rpc.Addr
	leaseID    uint64
	expiry     time.Duration
	clean      bool     // the current/last holder released (or will hand off) cleanly
	prevHolder rpc.Addr // last holder that ended cleanly, for SameLeader
	recovering bool     // a grantee is running journal recovery
	recoverID  uint64   // lease id of the recovering grantee
}

// suspect records a range of directories whose grant state was lost in
// transit: a handoff transfer that failed, or a shard that restarted without
// a snapshot and then handed its territory on. An unknown directory matching
// a suspect is treated like a crashed holder whose lease lapsed at expiry —
// grace wait, then a NeedRecovery grant — because the lost holder may have
// died with journal records pending. Suspicion, like the restarted flag, is
// kept for the manager's lifetime and rides handoffs so a second resharding
// cannot launder it away.
type suspect struct {
	prev   Ring          // membership before the change that lost the state
	from   rpc.Addr      // the shard whose state went missing
	expiry time.Duration // upper bound on any lost holder's believed expiry
}

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

	mu      sync.Mutex
	dirs    map[types.Ino]*dirState
	nextID  uint64
	readyAt time.Duration // restart quiesce deadline
	// restarted: this manager lost (some of) its predecessor's in-memory
	// chain state. It cannot know which directories died with journal records
	// pending, so the first grant of every unknown directory is conservative:
	// treated as a crashed holder (grace wait, then a NeedRecovery grant).
	// Recovery of an intact directory is a cheap no-op, so safety costs
	// little. A snapshot-resumed manager keeps the flag for the residue —
	// chain events after the last persisted snapshot — but skips the global
	// quiesce, because every persisted directory is served from live state.
	restarted bool
	// unknownExpiry is the synthetic lease expiry assigned to directories
	// unknown after a restart: an upper bound on any forgotten holder's
	// believed expiry (restart time + one period; the cold-restart quiesce
	// deadline coincides with it).
	unknownExpiry time.Duration

	// Elastic-cluster state. ring is the shard's view of the membership
	// (zero for an unsharded manager); gaining freezes newly-won territory
	// until the cluster confirms the handoff transfers are settled; tombstone
	// marks a removed shard that only answers ring redirects.
	ring      Ring
	gaining   *Ring // previous ring while a gain is in flight
	tombstone bool
	suspects  []suspect

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

	// qos rate-limits Acquire per tenant (nil admits everything).
	qos *qos.Limiter

	stats ManagerStats
	// Registry counters (nil-safe). Named counters are shared across sharded
	// managers attached to the same registry, so they aggregate cluster-wide.
	cAcquires, cExtensions, cRedirects *obs.Counter
	cReleases, cRecoveries, cWaits     *obs.Counter
	cRingRedirects                     *obs.Counter
	cHandoffOut, cHandoffIn            *obs.Counter
	cPersists, cPersistErrs, cResumed  *obs.Counter
	cShed                              *obs.Counter // admission refusals
	tracer                             *obs.Tracer  // nil without Options.Obs
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
	// TraceSeed overrides the trace-ID stream seed (default: a hash of the
	// manager's address, deterministic across replays).
	TraceSeed uint64
	// QoS, when non-nil, rate-limits Acquire requests per tenant: a refusal
	// answers with the existing Wait/RetryAfter mechanism, so the client's
	// budgeted wait loop absorbs it without new protocol. Release, recovery
	// handshakes, and handoffs are never limited — they shrink load.
	QoS *qos.Limiter
	// Limits bounds the requests waiting for one of the Workers slots and
	// their wait (see rpc.ServerLimits). Zero value means no limits.
	Limits rpc.ServerLimits
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
		dirs:        make(map[types.Ino]*dirState),
		ring:        opts.Ring,
		qos:         opts.QoS,
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
	m.cShed = opts.Obs.Counter("qos.shed.lease")
	if opts.Store != nil {
		m.store = opts.Store
		m.snapKey = SnapshotKey(opts.Addr)
		m.pmu = sim.NewMutex(m.env)
	}
	resumed := m.resume(opts)
	if opts.Restarted && !resumed {
		m.readyAt = m.env.Now() + m.period
		m.restarted = true
		m.unknownExpiry = m.readyAt
	}
	if opts.Obs != nil {
		m.tracer = obs.NewTracer(0, m.env.Now)
		m.tracer.SetProc(string(opts.Addr))
		seed := opts.TraceSeed
		if seed == 0 {
			seed = addrSeed(opts.Addr)
		}
		m.tracer.SetSeed(seed)
		opts.Obs.Func("obs.trace.spans", m.tracer.Total)
	}
	m.server = net.ListenCtx(opts.Addr, opts.Workers, m.handle, opts.Limits)
	return m
}

// resume loads the persisted grant table, if any. It returns true when a
// valid snapshot was applied: the shard then serves known directories
// immediately (no quiesce) and treats only the unknown residue as crashed.
func (m *Manager) resume(opts Options) bool {
	if m.store == nil {
		return false
	}
	raw, err := m.store.Get(m.snapKey)
	if errors.Is(err, types.ErrNotExist) {
		return false // first boot of this shard
	}
	now := m.env.Now()
	conservative := func() {
		// A snapshot existed but cannot be trusted (read error or CRC
		// failure): fall back to full-amnesia restart semantics.
		m.readyAt = now + m.period
		m.restarted = true
		m.unknownExpiry = m.readyAt
		m.cPersistErrs.Inc()
	}
	if err != nil {
		conservative()
		return true
	}
	st, derr := decodeSnapshot(raw)
	if derr != nil {
		conservative()
		return true
	}
	// Every expiry and suspect bound starts at now+period: the true holder may
	// have extended after the last persisted chain event, and its lease ends
	// within one period of the predecessor's last answer, which came before
	// now. The snapshot holds no instant: the dead process's clock had
	// another zero. A live holder resumes through an ordinary extension; a
	// dead one lapses into the normal crashed-holder grace.
	for ino, d := range st.dirs {
		d.expiry = now + m.period
		m.dirs[ino] = d
	}
	for i := range st.suspects {
		st.suspects[i].expiry = now + m.period
	}
	m.nextID = st.nextID
	m.suspects = st.suspects
	m.restarted = true // residue: chain events after the last snapshot
	m.unknownExpiry = now + m.period
	m.cResumed.Add(int64(len(st.dirs)))
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

// Stats returns the manager's counters.
func (m *Manager) Stats() *ManagerStats { return &m.stats }

// DirCount returns the number of directories with materialized chain state.
func (m *Manager) DirCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.dirs)
}

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
	span := func(op string) *obs.Span {
		sp := m.tracer.StartChild(meta.Span, op, "")
		sp.SetTenant(tenant)
		sp.SetWait(meta.Wait)
		return sp
	}
	if m.serviceCost > 0 {
		// Charged inside the server's slot: Workers requests are serviced
		// concurrently, the rest queue — a real server's CPU, not a delay.
		m.env.Sleep(m.serviceCost)
	}
	switch r := req.(type) {
	case AcquireReq:
		sp := span("lease.Acquire")
		sp.SetDir(r.Dir)
		// Per-tenant admission rides the existing Wait/RetryAfter protocol:
		// a refused Acquire looks exactly like a busy directory, which the
		// client's budgeted wait loop already knows how to absorb.
		if m.qos != nil {
			if ok, after := m.qos.Admit(tenant, time.Unix(0, int64(m.env.Now()))); !ok {
				m.cShed.Inc()
				resp := AcquireResp{Wait: true, RetryAfter: after}
				sp.End(nil)
				return resp
			}
		}
		resp := m.acquire(r, epoch)
		sp.End(nil)
		return resp
	case ReleaseReq:
		sp := span("lease.Release")
		sp.SetDir(r.Dir)
		resp := m.release(r, epoch)
		sp.End(nil)
		return resp
	case RecoveryDoneReq:
		sp := span("lease.RecoveryDone")
		sp.SetDir(r.Dir)
		resp := m.recoveryDone(r, epoch)
		sp.End(nil)
		return resp
	case HandoffReq:
		sp := span("lease.Handoff")
		resp := m.acceptHandoff(r)
		sp.End(nil)
		return resp
	default:
		return AcquireResp{} // unknown message: deny
	}
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
	return encodeSnapshot(m.dirs, m.nextID, m.suspects), m.snapSeq
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

func (m *Manager) acquire(r AcquireReq, reqEpoch uint64) AcquireResp {
	m.mu.Lock()
	resp, snap, seq := m.acquireLocked(r, reqEpoch)
	m.mu.Unlock()
	// Chain-creating grants are made durable before they are acknowledged.
	m.maybePersist(snap, seq)
	return resp
}

func (m *Manager) acquireLocked(r AcquireReq, reqEpoch uint64) (AcquireResp, []byte, uint64) {
	now := m.env.Now()
	m.stats.Acquires.Add(1)
	m.cAcquires.Inc()

	if redirect, wait := m.ringCheckLocked(r.Dir, reqEpoch); redirect {
		m.cRingRedirects.Inc()
		return AcquireResp{StaleRing: true, Ring: m.ring}, nil, 0
	} else if wait {
		m.cWaits.Inc()
		return AcquireResp{Wait: true, Quiesce: true, RetryAfter: m.period / 16}, nil, 0
	}

	if now < m.readyAt {
		m.cWaits.Inc()
		return AcquireResp{Wait: true, Quiesce: true, RetryAfter: m.readyAt - now}, nil, 0
	}

	d := m.dirs[r.Dir]
	if d == nil {
		switch {
		case m.restarted:
			// No chain state survived the restart: the directory's last
			// holder may have crashed with journal records pending. Model it
			// as a crashed unknown holder whose lease lapsed at the restart
			// bound; the crashed-holder branch below then enforces the
			// data-lease grace and hands the first acquirer a NeedRecovery
			// grant.
			d = &dirState{holder: "?unknown", expiry: m.unknownExpiry}
		case m.suspectExpiryLocked(r.Dir) > 0:
			// The directory sits in a range whose grant state was lost in a
			// failed handoff (or behind an amnesiac predecessor shard): same
			// conservative treatment, scoped to the suspect range instead of
			// the whole shard.
			d = &dirState{holder: "?unknown", expiry: m.suspectExpiryLocked(r.Dir)}
		default:
			d = &dirState{clean: true}
		}
		m.dirs[r.Dir] = d
	}

	switch {
	case d.recovering && now < d.expiry+m.period:
		// A recovery is in flight; its owner may extend, others wait.
		if d.holder == r.Client && d.leaseID == d.recoverID {
			d.expiry = now + m.period
			return AcquireResp{Granted: true, LeaseID: d.leaseID, Period: m.period, SameLeader: true}, nil, 0
		}
		m.cWaits.Inc()
		return AcquireResp{Wait: true, RetryAfter: m.period / 2}, nil, 0

	case d.recovering:
		// The recoverer itself died: its lease lapsed a full grace period ago
		// without a RecoveryDone. Start a fresh recovery chain; journal
		// replay is idempotent, so a half-finished predecessor is harmless.
		m.stats.Recoveries.Add(1)
		m.cRecoveries.Inc()
		m.nextID++
		d.holder, d.leaseID, d.expiry = r.Client, m.nextID, now+m.period
		d.recovering, d.recoverID = true, m.nextID
		d.clean = false
		snap, seq := m.persistLocked()
		return AcquireResp{Granted: true, LeaseID: d.leaseID, Period: m.period, NeedRecovery: true}, snap, seq

	case d.holder != "" && now < d.expiry:
		if d.holder == r.Client {
			// Extension: same chain, metadata stays valid. Not persisted —
			// the resume path's one-period expiry covers extensions.
			m.stats.Extensions.Add(1)
			m.cExtensions.Inc()
			d.expiry = now + m.period
			return AcquireResp{Granted: true, LeaseID: d.leaseID, Period: m.period, SameLeader: true}, nil, 0
		}
		m.stats.Redirects.Add(1)
		m.cRedirects.Inc()
		return AcquireResp{Redirect: true, Leader: d.holder}, nil, 0

	case d.holder != "" && !d.clean && d.holder == r.Client:
		// The holder itself re-acquires after letting its lease lapse (an
		// idle period, not a crash): its in-memory state is authoritative,
		// its data leases are its own, so re-grant in place.
		m.stats.Extensions.Add(1)
		m.cExtensions.Inc()
		d.expiry = now + m.period
		return AcquireResp{Granted: true, LeaseID: d.leaseID, Period: m.period, SameLeader: true}, nil, 0

	case d.holder != "" && !d.clean:
		// The lease lapsed without a clean release: the holder crashed.
		// Honor the paper's grace: wait one full period past expiry so any
		// data read/write leases the dead leader issued have lapsed too.
		if now < d.expiry+m.period {
			m.cWaits.Inc()
			return AcquireResp{Wait: true, RetryAfter: d.expiry + m.period - now}, nil, 0
		}
		m.stats.Recoveries.Add(1)
		m.cRecoveries.Inc()
		m.nextID++
		d.holder, d.leaseID, d.expiry = r.Client, m.nextID, now+m.period
		d.recovering, d.recoverID = true, m.nextID
		d.clean = false
		snap, seq := m.persistLocked()
		return AcquireResp{Granted: true, LeaseID: d.leaseID, Period: m.period, NeedRecovery: true}, snap, seq

	default:
		// Free (never held, cleanly released, or expired after a clean
		// hand-off). Grant; tell an unbroken repeat leader it may keep its
		// metatable.
		same := d.prevHolder == r.Client && d.prevHolder != ""
		m.nextID++
		d.holder, d.leaseID, d.expiry = r.Client, m.nextID, now+m.period
		d.clean = false // not clean until released; expiry without release = crash
		snap, seq := m.persistLocked()
		return AcquireResp{Granted: true, LeaseID: d.leaseID, Period: m.period, SameLeader: same}, snap, seq
	}
}

// suspectExpiryLocked returns the synthetic expiry bound for dir when it
// falls in a suspect range (0 otherwise).
func (m *Manager) suspectExpiryLocked(dir types.Ino) time.Duration {
	var e time.Duration
	for _, s := range m.suspects {
		if s.prev.RouteAddr(dir) == s.from && s.expiry > e {
			e = s.expiry
		}
	}
	return e
}

func (m *Manager) release(r ReleaseReq, reqEpoch uint64) ReleaseResp {
	m.mu.Lock()
	resp, snap, seq := m.releaseLocked(r, reqEpoch)
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return resp
}

func (m *Manager) releaseLocked(r ReleaseReq, reqEpoch uint64) (ReleaseResp, []byte, uint64) {
	m.stats.Releases.Add(1)
	m.cReleases.Inc()
	if redirect, wait := m.ringCheckLocked(r.Dir, reqEpoch); redirect || wait {
		m.cRingRedirects.Inc()
		return ReleaseResp{StaleRing: true, Ring: m.ring}, nil, 0
	}
	d := m.dirs[r.Dir]
	if d == nil || d.holder != r.Client || d.leaseID != r.LeaseID {
		return ReleaseResp{OK: false}, nil, 0
	}
	if !r.Clean {
		// The holder renounced with unflushed state (a failed Close flush, an
		// aborted recovery): its journal may hold records the metatable does
		// not. Freeing the directory outright would hand the next leader a
		// grant without NeedRecovery and those records would never replay.
		// Instead, lapse the lease on the spot: the next acquirer takes the
		// crashed-holder path — grace wait, then a recovery grant.
		d.expiry = m.env.Now()
		d.recovering = false
		d.clean = false
		d.prevHolder = ""
		snap, seq := m.persistLocked()
		return ReleaseResp{OK: true}, snap, seq
	}
	d.holder = ""
	d.recovering = false
	d.clean = true
	d.prevHolder = r.Client
	snap, seq := m.persistLocked()
	return ReleaseResp{OK: true}, snap, seq
}

func (m *Manager) recoveryDone(r RecoveryDoneReq, reqEpoch uint64) RecoveryDoneResp {
	m.mu.Lock()
	resp, snap, seq := m.recoveryDoneLocked(r, reqEpoch)
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return resp
}

func (m *Manager) recoveryDoneLocked(r RecoveryDoneReq, reqEpoch uint64) (RecoveryDoneResp, []byte, uint64) {
	if redirect, wait := m.ringCheckLocked(r.Dir, reqEpoch); redirect || wait {
		m.cRingRedirects.Inc()
		return RecoveryDoneResp{StaleRing: true, Ring: m.ring}, nil, 0
	}
	d := m.dirs[r.Dir]
	if d == nil || !d.recovering || d.holder != r.Client || d.recoverID != r.LeaseID {
		return RecoveryDoneResp{OK: false}, nil, 0
	}
	// Renew the lease on the leader who performed the recovery (§III-E-1).
	d.recovering = false
	d.expiry = m.env.Now() + m.period
	snap, seq := m.persistLocked()
	return RecoveryDoneResp{OK: true, Period: m.period, LeaseID: d.leaseID}, snap, seq
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

// FinishGain unfreezes the gained territory. lost carries a suspicion record
// for every range whose transfer failed; directories in those ranges pay the
// grace stall, everything else serves from the transferred state.
func (m *Manager) FinishGain(lost []suspect) {
	m.mu.Lock()
	m.gaining = nil
	m.suspects = append(m.suspects, lost...)
	snap, seq := m.persistLocked()
	m.mu.Unlock()
	m.maybePersist(snap, seq)
}

// BeginHandoff installs nr and extracts the live grant state of every
// directory this shard loses under it, grouped by gaining shard. From the
// moment it returns, moved directories answer StaleRing redirects here; the
// extracted grants must reach their new owners (HandoffReq) or those
// directories pay the grace stall there. The second return value carries the
// suspicion records the gainers must inherit — this shard's accumulated
// suspects plus, when the shard itself restarted without full state, its own
// amnesia window.
func (m *Manager) BeginHandoff(nr Ring) (map[rpc.Addr][]DirGrant, []suspect) {
	m.mu.Lock()
	if !m.ring.IsZero() && nr.Epoch <= m.ring.Epoch {
		m.mu.Unlock()
		return nil, nil
	}
	prev := m.ring
	m.ring = nr
	moved := make(map[rpc.Addr][]DirGrant)
	n := 0
	for ino, d := range m.dirs {
		owner := nr.RouteAddr(ino)
		if owner == m.ringAddr {
			continue
		}
		delete(m.dirs, ino)
		if d.holder == "" && d.clean && d.prevHolder == "" {
			continue // default state: nothing worth shipping
		}
		moved[owner] = append(moved[owner], DirGrant{
			Dir: ino, Holder: d.holder, LeaseID: d.leaseID, Expiry: d.expiry,
			Clean: d.clean, PrevHolder: d.prevHolder,
			Recovering: d.recovering, RecoverID: d.recoverID,
		})
		n++
	}
	for _, grants := range moved {
		slices.SortFunc(grants, func(a, b DirGrant) int { return a.Dir.Compare(b.Dir) })
	}
	inherited := append([]suspect(nil), m.suspects...)
	if m.restarted {
		inherited = append(inherited, suspect{prev: prev, from: m.ringAddr, expiry: m.unknownExpiry})
	}
	m.cHandoffOut.Add(int64(n))
	snap, seq := m.persistLocked()
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return moved, inherited
}

// acceptHandoff installs grant state transferred from a losing shard. Grants
// for an older epoch than the shard's view are rejected (a delayed transfer
// from a superseded resharding); a directory that already materialized
// locally keeps the local chain.
func (m *Manager) acceptHandoff(r HandoffReq) HandoffResp {
	m.mu.Lock()
	if !m.ring.IsZero() && r.Epoch < m.ring.Epoch {
		m.mu.Unlock()
		return HandoffResp{OK: false}
	}
	accepted := 0
	for _, g := range r.Grants {
		if _, exists := m.dirs[g.Dir]; exists {
			continue
		}
		m.dirs[g.Dir] = &dirState{
			holder: g.Holder, leaseID: g.LeaseID, expiry: g.Expiry,
			clean: g.Clean, prevHolder: g.PrevHolder,
			recovering: g.Recovering, recoverID: g.RecoverID,
		}
		// Fencing continuity: a fresh chain on a transferred directory must
		// mint an id above everything the loser ever issued for it.
		if g.LeaseID > m.nextID {
			m.nextID = g.LeaseID
		}
		if g.RecoverID > m.nextID {
			m.nextID = g.RecoverID
		}
		accepted++
	}
	m.cHandoffIn.Add(int64(accepted))
	snap, seq := m.persistLocked()
	m.mu.Unlock()
	m.maybePersist(snap, seq)
	return HandoffResp{OK: true, Accepted: accepted}
}

// Tombstone converts a removed shard into a redirect-only stub: it keeps
// listening so clients with a stale ring learn the final membership instead
// of timing out, but never grants again. Its persisted snapshot is deleted —
// the live state moved to the gaining shards.
func (m *Manager) Tombstone(final Ring) {
	m.mu.Lock()
	m.tombstone = true
	m.ring = final
	m.dirs = make(map[types.Ino]*dirState)
	store, key := m.store, m.snapKey
	m.mu.Unlock()
	if store != nil {
		_ = store.Delete(key)
	}
}

// expireForTest force-lapses a directory's lease; used by tests to simulate
// the passage of time without waiting.
func (m *Manager) expireForTest(dir types.Ino) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if d := m.dirs[dir]; d != nil {
		d.expiry = 0
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

// Acquire requests (or extends) the lease of dir. The caller's trace
// identity in ctx rides to the manager so its handling shows as a child
// span of the acquiring operation; the router's ring epoch rides the rpc
// envelope, and stale-ring redirects are followed transparently.
func (c *Client) Acquire(ctx context.Context, dir types.Ino) (AcquireResp, error) {
	for h := 0; h < maxRingHops; h++ {
		addr, epoch := c.target(dir)
		resp, err := c.Net.CallFromCtx(hop(ctx, epoch), c.Self, addr, AcquireReq{Dir: dir, Client: c.Self})
		if err != nil {
			return AcquireResp{}, err
		}
		ar := resp.(AcquireResp)
		if !ar.StaleRing {
			return ar, nil
		}
		c.stale(ar.Ring, epoch)
	}
	return AcquireResp{}, fmt.Errorf("lease: ring redirect loop for %s: %w", dir.Short(), types.ErrTimedOut)
}

// Release gives the lease back; clean reports a full metadata flush.
func (c *Client) Release(ctx context.Context, dir types.Ino, id uint64, clean bool) error {
	for h := 0; h < maxRingHops; h++ {
		addr, epoch := c.target(dir)
		resp, err := c.Net.CallFromCtx(hop(ctx, epoch), c.Self, addr, ReleaseReq{Dir: dir, LeaseID: id, Client: c.Self, Clean: clean})
		if err != nil {
			return err
		}
		if rr, ok := resp.(ReleaseResp); !ok || !rr.StaleRing {
			return nil
		} else {
			c.stale(rr.Ring, epoch)
		}
	}
	return fmt.Errorf("lease: ring redirect loop for %s: %w", dir.Short(), types.ErrTimedOut)
}

// RecoveryDone reports a finished journal recovery and returns the renewed
// lease.
func (c *Client) RecoveryDone(ctx context.Context, dir types.Ino, id uint64) (RecoveryDoneResp, error) {
	for h := 0; h < maxRingHops; h++ {
		addr, epoch := c.target(dir)
		resp, err := c.Net.CallFromCtx(hop(ctx, epoch), c.Self, addr, RecoveryDoneReq{Dir: dir, LeaseID: id, Client: c.Self})
		if err != nil {
			return RecoveryDoneResp{}, err
		}
		rd := resp.(RecoveryDoneResp)
		if !rd.StaleRing {
			return rd, nil
		}
		c.stale(rd.Ring, epoch)
	}
	return RecoveryDoneResp{}, fmt.Errorf("lease: ring redirect loop for %s: %w", dir.Short(), types.ErrTimedOut)
}
