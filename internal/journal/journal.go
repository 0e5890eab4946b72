// Package journal implements ArkFS's per-directory journaling (paper §III-E)
// with an asynchronous, pipelined commit path.
//
// Each directory a client leads gets its own journal: a sequence of objects
// "j:<dir>:<seq>" holding CRC-protected compound transactions. Metadata
// mutations are acknowledged immediately from the in-memory metatable and
// accumulate in a running transaction for up to the commit interval (1 s by
// default). When the interval tick fires, every dirty directory is sealed in
// one pass (cross-directory group commit) and the sealed records feed a
// pipelined PUT stage: up to PipelineDepth records of the same directory may
// be in flight at once, each written by any put worker, so record N+1 is
// encoded and sent while record N is still on the wire.
//
// Sequence order is preserved not by serializing the PUTs but by the
// per-directory durability watermark: durableTo is the lowest sequence not
// yet known durable, and it only advances contiguously. Checkpoints — the
// application of a committed record to the original inode/dentry objects —
// are dispatched strictly in sequence order as the watermark passes each
// record, so the originals always reflect a prefix of the journal. An
// operation externalizes (becomes visible to another client via lease
// handoff, fsync, or 2PC) only once every record it depends on is under the
// watermark:
//
//   - Barrier waits for durability only (the fsync path): a durable record
//     is recoverable by the next leader's replay, which is all fsync
//     promises.
//   - Flush waits for durability and checkpoint (the lease-handoff path): a
//     cleanly released directory is loaded without journal replay, so its
//     journal must be empty.
//
// If a journal PUT fails permanently, the pipeline for that directory is
// poisoned: records that landed above the gap are deleted (the journal must
// stay a replayable prefix), queued records are dropped, and the error
// surfaces at the next barrier — acknowledgements are tentative until a
// barrier confirms them, exactly the contract fsync(2) has always had.
//
// Operations spanning two directories (RENAME) use a two-phase commit: both
// journals receive a prepare record, the coordinating directory's journal
// receives the decision record, and recovery resolves prepared-but-undecided
// transactions by consulting the coordinator's journal (presumed abort). The
// prepare is written only after a durability barrier on the directory, so a
// prepared transaction never depends on a record that could still be lost.
package journal

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/crashpoint"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Config tunes a client's journaling machinery.
type Config struct {
	// CommitInterval is how long a running transaction buffers mutations
	// before being committed (paper: 1 second).
	CommitInterval time.Duration
	// CommitWorkers and CheckpointWorkers size the two thread pools.
	CommitWorkers     int
	CheckpointWorkers int
	// CheckpointFanout bounds the concurrent inode-object writes one
	// transaction's checkpoint issues (they are independent objects).
	CheckpointFanout int
	// PipelineDepth bounds how many journal PUTs of one directory may be in
	// flight at once. 1 serializes appends (the pre-async behavior); higher
	// values overlap record N+1's PUT with record N's.
	PipelineDepth int
	// Crash, when non-nil, announces the commit/checkpoint/2PC crash sites
	// this journal passes through; chaos scenarios arm it. Nil is inert.
	Crash *crashpoint.Set
	// Obs, when non-nil, receives journal metrics: append/commit/checkpoint
	// counters, commit and checkpoint latency histograms (environment clock),
	// running-transaction buffer occupancy, and 2PC outcomes. Nil is inert.
	Obs *obs.Registry
	// Trace, when non-nil, receives child spans for the asynchronous half of
	// every journaled mutation: commit, checkpoint, 2PC records, and the
	// object-store verbs underneath them, parented under the trace of the
	// operation that opened the transaction. Nil is inert.
	Trace *obs.Tracer
}

// DefaultConfig matches the paper's settings plus the async pipeline depth.
func DefaultConfig() Config {
	return Config{CommitInterval: time.Second, CommitWorkers: 4, CheckpointWorkers: 4, CheckpointFanout: 16, PipelineDepth: 4}
}

// Journal manages every per-directory journal owned by one client.
type Journal struct {
	env sim.Env
	tr  *prt.Translator
	cfg Config

	putQs  []*sim.Chan[*putItem]
	ckptQs []*sim.Chan[*ckptItem]

	// Metric sinks (nil-safe no-ops when cfg.Obs is nil).
	cAppends     *obs.Counter
	cOps         *obs.Counter
	cCoalesced   *obs.Counter
	gBuffer      *obs.Gauge
	cCommits     *obs.Counter
	cCommitErrs  *obs.Counter
	hCommit      *obs.Histogram
	hCommitWait  *obs.Histogram
	hWatermark   *obs.Histogram
	cCkpts       *obs.Counter
	cCkptErrs    *obs.Counter
	hCkpt        *obs.Histogram
	cGroupSeals  *obs.Counter
	cBarriers    *obs.Counter
	gInflight    *obs.Gauge
	c2pcPrepares *obs.Counter
	c2pcCommits  *obs.Counter
	c2pcAborts   *obs.Counter
	trace        *obs.Tracer // nil-safe span sink

	seqs   atomic.Uint64 // txn id counter
	idBase atomic.Uint64 // client-unique high bits for txn ids

	// backlog counts sealed records that are not yet durable (queued behind
	// the pipeline window plus in flight), across all directories. Unlike the
	// gauges above it is maintained even without a metrics registry: it is the
	// overload signal Pressure() feeds the leader's brownout ladder.
	backlog atomic.Int64

	mu     sync.Mutex
	closed bool
	dirs   map[types.Ino]*dirJournal
}

// dirJournal is the journal state of a single led directory.
type dirJournal struct {
	dir types.Ino

	mu        sync.Mutex
	running   []wire.Op         // the running compound transaction
	runInode  map[types.Ino]int // where running holds each inode's one inode op
	runSC     obs.SpanContext   // trace of the op that opened the running txn
	runTenant string            // tenant of the op that opened the running txn
	scheduled bool              // a timed commit is already armed
	cancel    func() bool
	nextSeq   uint64

	// Pipeline state. Sequences in [durableTo, nextSeq) are sealed and either
	// queued, in flight, or landed out of order; durableTo advances only
	// contiguously, and checkpoints dispatch in sequence order as it does.
	gen       uint64             // bumped on failure; stale completions self-delete
	queued    []*record          // sealed, waiting for a pipeline slot
	inflight  int                // PUTs currently in flight
	landed    map[uint64]*record // durable out of order, awaiting the watermark
	durableTo uint64             // every seq < durableTo is durable (or a tolerated hole)
	waiters   []durWaiter

	err error // first async commit/checkpoint error, surfaced at a barrier

	// ckptStuck is set when a checkpoint failed to apply its transaction.
	// Unlike err it is never consumed by a barrier: the unapplied record is
	// persistent state (it sits in the journal awaiting ordered replay), so
	// every Flush must keep failing — forcing an unclean release and a
	// NeedRecovery grant for the next leader — until recovery resets the
	// directory. Later records are left unapplied too (see ckptLoop): applying
	// around the gap could reorder same-name mutations.
	ckptStuck error
	// stale holds journal keys whose transactions applied but whose
	// invalidation failed. Replaying them is idempotent, so they are not an
	// error — but a clean release promises an empty journal, so Flush retries
	// the deletes and fails the flush if any survive.
	stale []string
}

// record is one sealed journal transaction moving through the PUT pipeline.
// A record with a nil txn is a sequence hole: a slot consumed by a
// synchronously written 2PC record or abandoned by a failed PUT, which the
// watermark passes without dispatching a checkpoint.
type record struct {
	seq    uint64
	gen    uint64
	key    string
	txn    *wire.Txn
	ops    []wire.Op
	sc     obs.SpanContext
	tenant string        // tenant of the op that opened the batch, for span attribution
	sealAt time.Duration // env clock at seal; decomposes commit latency into queue wait vs PUT
}

// durWaiter is a parked durability barrier: woken once durableTo >= target.
type durWaiter struct {
	target uint64
	ch     *sim.Chan[struct{}]
}

type putItem struct {
	dj  *dirJournal
	rec *record
}

type ckptItem struct {
	dj     *dirJournal
	txn    *wire.Txn
	seq    uint64
	ops    []wire.Op       // ops to apply (may differ from txn.Ops for 2PC applies)
	del    []string        // journal object keys to delete after applying
	sc     obs.SpanContext // trace the checkpoint span parents under
	tenant string          // tenant attribution inherited from the record
	done   *sim.Chan[error]
}

// New starts a client's journaling workers.
func New(env sim.Env, tr *prt.Translator, cfg Config) *Journal {
	if cfg.CommitInterval <= 0 {
		cfg.CommitInterval = time.Second
	}
	if cfg.CommitWorkers <= 0 {
		cfg.CommitWorkers = 1
	}
	if cfg.CheckpointWorkers <= 0 {
		cfg.CheckpointWorkers = 1
	}
	if cfg.CheckpointFanout <= 0 {
		cfg.CheckpointFanout = 16
	}
	if cfg.PipelineDepth <= 0 {
		cfg.PipelineDepth = 4
	}
	j := &Journal{env: env, tr: tr, cfg: cfg, trace: cfg.Trace, dirs: make(map[types.Ino]*dirJournal)}
	j.cAppends = cfg.Obs.Counter("journal.appends")
	j.cOps = cfg.Obs.Counter("journal.ops")
	j.cCoalesced = cfg.Obs.Counter("journal.ops.coalesced")
	j.gBuffer = cfg.Obs.Gauge("journal.buffer.ops")
	j.cCommits = cfg.Obs.Counter("journal.commits")
	j.cCommitErrs = cfg.Obs.Counter("journal.commit.errors")
	j.hCommit = cfg.Obs.Histogram("journal.commit.latency")
	j.hCommitWait = cfg.Obs.Histogram("journal.commit.wait")
	j.hWatermark = cfg.Obs.Histogram("journal.watermark.latency")
	j.cCkpts = cfg.Obs.Counter("journal.checkpoints")
	j.cCkptErrs = cfg.Obs.Counter("journal.checkpoint.errors")
	j.hCkpt = cfg.Obs.Histogram("journal.checkpoint.latency")
	j.cGroupSeals = cfg.Obs.Counter("journal.group.seals")
	j.cBarriers = cfg.Obs.Counter("journal.barriers")
	j.gInflight = cfg.Obs.Gauge("journal.pipeline.inflight")
	j.c2pcPrepares = cfg.Obs.Counter("journal.2pc.prepares")
	j.c2pcCommits = cfg.Obs.Counter("journal.2pc.commits")
	j.c2pcAborts = cfg.Obs.Counter("journal.2pc.aborts")
	for i := 0; i < cfg.CommitWorkers; i++ {
		q := sim.NewChan[*putItem](env)
		j.putQs = append(j.putQs, q)
		env.Go(func() { j.putLoop(q) })
	}
	for i := 0; i < cfg.CheckpointWorkers; i++ {
		q := sim.NewChan[*ckptItem](env)
		j.ckptQs = append(j.ckptQs, q)
		env.Go(func() { j.ckptLoop(q) })
	}
	return j
}

// Close stops the workers. Buffered but uncommitted mutations are dropped and
// later Log calls are ignored — call FlushAll first for a clean shutdown.
// Parked barriers are woken with a shutdown error.
func (j *Journal) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	djs := make([]*dirJournal, 0, len(j.dirs))
	for _, dj := range j.dirs {
		djs = append(djs, dj)
	}
	j.mu.Unlock()
	// Inode order, as in groupCommit: the barriers woken below queue up in it.
	slices.SortFunc(djs, func(a, b *dirJournal) int { return a.dir.Compare(b.dir) })
	for _, q := range j.putQs {
		q.Close()
	}
	for _, q := range j.ckptQs {
		q.Close()
	}
	for _, dj := range djs {
		dj.mu.Lock()
		if dj.cancel != nil {
			dj.cancel()
			dj.scheduled, dj.cancel = false, nil
		}
		ws := dj.waiters
		dj.waiters = nil
		dj.mu.Unlock()
		for _, w := range ws {
			w.ch.Close() // Recv returns !ok: the barrier reports shutdown
		}
	}
}

// ckptQ returns the checkpoint queue statically assigned to dir: one
// directory's checkpoints always serialize through the same worker, which is
// what keeps them applied in sequence order.
func (j *Journal) ckptQ(dir types.Ino) *sim.Chan[*ckptItem] {
	return j.ckptQs[int(dir.Lo()%uint64(len(j.ckptQs)))]
}

// dirJournal returns (creating if needed) the journal of dir.
func (j *Journal) dirJournal(dir types.Ino) *dirJournal {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dirJournalLocked(dir)
}

func (j *Journal) dirJournalLocked(dir types.Ino) *dirJournal {
	dj := j.dirs[dir]
	if dj == nil {
		dj = &dirJournal{dir: dir, landed: make(map[uint64]*record)}
		j.dirs[dir] = dj
	}
	return dj
}

// setNextSeq primes the journal sequence for dir after recovery (Recover)
// with one past the highest sequence it observed. Everything below that
// sequence was either replayed or discarded, so the durability watermark
// starts there too.
func (j *Journal) setNextSeq(dir types.Ino, seq uint64) {
	dj := j.dirJournal(dir)
	dj.mu.Lock()
	dj.nextSeq = seq
	dj.durableTo = seq
	// Recovery replayed (and invalidated) everything below seq, so any stuck
	// or stale pipeline state from the previous leadership is obsolete. The
	// generation bump makes in-flight completions of old PUTs self-delete.
	dj.ckptStuck = nil
	dj.stale = nil
	dj.err = nil
	dj.gen++
	j.backlog.Add(-int64(len(dj.queued)))
	dj.queued = nil
	for s := range dj.landed {
		delete(dj.landed, s)
	}
	dj.mu.Unlock()
}

// Pressure reports how far the commit pipeline is backed up: the number of
// sealed-but-not-yet-durable records (in flight plus parked behind full
// per-directory windows) relative to the aggregate pipeline capacity,
// CommitWorkers × PipelineDepth. 0 means idle, 1 means every pipeline slot
// the journal could use is occupied, and values above 1 mean records are
// queuing faster than the object store lands them — the overload signal the
// leader's brownout ladder sheds expensive operations on.
func (j *Journal) Pressure() float64 {
	window := j.cfg.CommitWorkers * j.cfg.PipelineDepth
	if window <= 0 {
		window = 1
	}
	return float64(j.backlog.Load()) / float64(window)
}

// NewTxnID returns a fresh transaction id for 2PC: the client-unique base
// (see SetTxnIDBase) plus a local counter, so ids never collide across the
// clients whose journals a recovery scan may compare.
func (j *Journal) NewTxnID() uint64 {
	return j.idBase.Load() | j.seqs.Add(1)
}

// SetTxnIDBase installs the client-unique high bits of transaction ids.
func (j *Journal) SetTxnIDBase(base uint64) {
	j.idBase.Store(base << 32)
}

// Log appends metadata mutations to dir's running transaction and arms the
// group-commit timer. It is the fast path: the op was already acknowledged
// from the metatable, and this is pure memory work. The running transaction
// holds one inode op per inode: a later one replaces the earlier where it
// stands, which is what applyOps would keep of the two at checkpoint and
// replay (dentry ops keep their order, a sealed record is never touched).
// The trace identity in ctx is captured when this append opens a fresh
// running transaction, so the eventual commit/checkpoint spans link back to
// the operation that started the batch (later appends ride along untraced —
// a batch has one owner, the way a group commit has one leader). Appends on
// a closed journal are dropped: a directory journaled concurrently with
// Close would otherwise wedge a record that no worker will ever write.
func (j *Journal) Log(ctx context.Context, dir types.Ino, ops []wire.Op) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	dj := j.dirJournalLocked(dir)
	j.mu.Unlock()
	j.cAppends.Inc()
	j.cOps.Add(int64(len(ops)))
	dj.mu.Lock()
	if len(dj.running) == 0 && ctx != nil {
		m := rpc.MetaFrom(ctx)
		dj.runSC, dj.runTenant = m.Span, m.Tenant
	}
	before := len(dj.running)
	for i := range ops {
		if ino, ok := inodeOf(&ops[i]); ok {
			if at, seen := dj.runInode[ino]; seen {
				dj.running[at] = ops[i]
				continue
			}
			if dj.runInode == nil {
				dj.runInode = make(map[types.Ino]int)
			}
			dj.runInode[ino] = len(dj.running)
		}
		dj.running = append(dj.running, ops[i])
	}
	// The gauge counts what the running transaction holds (sealLocked takes
	// len(running) back off), the counter what it absorbed.
	grown := len(dj.running) - before
	j.gBuffer.Add(int64(grown))
	j.cCoalesced.Add(int64(len(ops) - grown))
	if !dj.scheduled {
		dj.scheduled = true
		dj.cancel = j.env.After(j.cfg.CommitInterval, j.groupCommit)
	}
	dj.mu.Unlock()
}

// inodeOf names the inode an inode op sets or deletes.
func inodeOf(op *wire.Op) (types.Ino, bool) {
	switch op.Kind {
	case wire.OpSetInode:
		return op.Inode.Ino, true
	case wire.OpDelInode:
		return op.Ino, true
	}
	return types.Ino{}, false
}

// groupCommit is the commit tick: the first directory whose interval expires
// seals every dirty directory in one deterministic pass, so independent
// directories share one wakeup and their records enter the PUT pipeline
// together (cross-directory group commit).
func (j *Journal) groupCommit() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	djs := make([]*dirJournal, 0, len(j.dirs))
	for _, dj := range j.dirs {
		djs = append(djs, dj)
	}
	j.mu.Unlock()
	// Map order is randomized; seal in inode order so virtual-clock runs of
	// the same seed schedule identically.
	slices.SortFunc(djs, func(a, b *dirJournal) int { return a.dir.Compare(b.dir) })
	sealed := 0
	for _, dj := range djs {
		dj.mu.Lock()
		if dj.scheduled {
			if dj.cancel != nil {
				dj.cancel()
			}
			dj.scheduled, dj.cancel = false, nil
			if j.sealLocked(dj) {
				sealed++
			}
		}
		dj.mu.Unlock()
	}
	if sealed > 1 {
		j.cGroupSeals.Add(int64(sealed - 1)) // records that rode a shared tick
	}
}

// sealLocked turns dir's running transaction into a sealed record, assigns
// its sequence, and feeds the PUT pipeline. Caller holds dj.mu. Reports
// whether a record was sealed (false for an empty running transaction).
func (j *Journal) sealLocked(dj *dirJournal) bool {
	if len(dj.running) == 0 {
		return false
	}
	ops, sc, tenant := dj.running, dj.runSC, dj.runTenant
	dj.running, dj.runInode, dj.runSC, dj.runTenant = nil, nil, obs.SpanContext{}, ""
	j.gBuffer.Add(-int64(len(ops)))
	seq := dj.nextSeq
	dj.nextSeq++
	rec := &record{
		seq:    seq,
		gen:    dj.gen,
		sealAt: j.env.Now(),
		key:    prt.JournalKey(dj.dir, seq),
		txn: &wire.Txn{
			ID:    j.NewTxnID(),
			Dir:   dj.dir,
			Kind:  wire.TxnNormal,
			Stamp: j.env.Now(),
			Ops:   ops,
		},
		ops:    ops,
		sc:     sc,
		tenant: tenant,
	}
	j.dispatchLocked(dj, rec)
	return true
}

// dispatchLocked hands a sealed record to a put worker, or parks it in the
// backlog when the directory's pipeline window is full. Caller holds dj.mu.
// Records of one directory spread over the put workers by sequence, which is
// what lets record N+1's PUT start while N's is still in flight.
func (j *Journal) dispatchLocked(dj *dirJournal, rec *record) {
	j.backlog.Add(1)
	if dj.inflight >= j.cfg.PipelineDepth {
		dj.queued = append(dj.queued, rec)
		return
	}
	dj.inflight++
	j.gInflight.Add(1)
	q := j.putQs[int((dj.dir.Lo()+rec.seq)%uint64(len(j.putQs)))]
	if !q.Send(&putItem{dj: dj, rec: rec}) {
		dj.inflight--
		j.gInflight.Add(-1)
		j.backlog.Add(-1)
		j.poisonLocked(dj, fmt.Errorf("journal: shut down during commit of %s: %w", rec.key, types.ErrIO))
	}
}

// putLoop is a put worker: it writes sealed records to the object store and
// reports their durability to the owning directory's watermark.
func (j *Journal) putLoop(q *sim.Chan[*putItem]) {
	for {
		it, ok := q.Recv()
		if !ok {
			return
		}
		dj, rec := it.dj, it.rec
		j.cfg.Crash.Hit(crashpoint.PreJournalPut)
		start := j.env.Now()
		// Queue wait: seal → PUT start. Separates time spent behind the
		// pipeline window / worker queues from the PUT itself.
		wait := start - rec.sealAt
		j.hCommitWait.ObserveTrace(wait, rec.sc.Trace)
		sp := j.trace.StartChild(rec.sc, "journal.commit", rec.key)
		sp.SetDir(dj.dir)
		sp.SetTenant(rec.tenant)
		sp.SetWait(wait)
		put := j.trace.StartChild(sp.Context(), "objstore.put", rec.key)
		put.SetTenant(rec.tenant)
		err := j.tr.Store().Put(rec.key, wire.EncodeTxn(rec.txn))
		put.End(err)
		sp.End(err)
		if err != nil {
			j.putFailed(dj, rec, err)
			continue
		}
		j.cCommits.Inc()
		j.hCommit.ObserveTrace(j.env.Now()-start, rec.sc.Trace)
		// The record is durable: from here on a crash must be recoverable by
		// the next leader's journal replay.
		j.cfg.Crash.Hit(crashpoint.PostJournalPut)
		j.putLanded(dj, rec)
	}
}

// putLanded marks one record durable, advances the contiguous watermark, and
// refills the pipeline window from the backlog. A record whose generation is
// stale landed after its pipeline was poisoned; its object is deleted so the
// journal stays a replayable prefix.
func (j *Journal) putLanded(dj *dirJournal, rec *record) {
	var doomed []string
	dj.mu.Lock()
	dj.inflight--
	j.gInflight.Add(-1)
	j.backlog.Add(-1)
	if rec.gen != dj.gen {
		doomed = append(doomed, rec.key)
	} else {
		dj.landed[rec.seq] = rec
		j.advanceLocked(dj)
		for len(dj.queued) > 0 && dj.inflight < j.cfg.PipelineDepth {
			next := dj.queued[0]
			dj.queued = dj.queued[1:]
			j.backlog.Add(-1) // re-counted by dispatchLocked
			j.dispatchLocked(dj, next)
		}
	}
	dj.mu.Unlock()
	for _, key := range doomed {
		_ = j.tr.Store().Delete(key)
	}
}

// putFailed poisons dir's pipeline after a permanent PUT failure.
func (j *Journal) putFailed(dj *dirJournal, rec *record, err error) {
	j.cCommitErrs.Inc()
	var doomed []string
	dj.mu.Lock()
	dj.inflight--
	j.gInflight.Add(-1)
	j.backlog.Add(-1)
	if rec.gen == dj.gen {
		doomed = j.poisonLocked(dj, fmt.Errorf("journal: commit %s: %w", rec.key, err))
	}
	dj.mu.Unlock()
	for _, key := range doomed {
		_ = j.tr.Store().Delete(key)
	}
}

// poisonLocked handles a lost record: the error is recorded for the next
// barrier, records landed above the gap are scheduled for deletion (returned
// for the caller to delete outside the lock — replaying them without their
// predecessor could apply ops whose prerequisites were lost), the backlog is
// dropped, in-flight PUTs are invalidated via the generation counter, and the
// watermark jumps over the wreckage so future records start clean. Caller
// holds dj.mu.
func (j *Journal) poisonLocked(dj *dirJournal, err error) (doomed []string) {
	if dj.err == nil {
		dj.err = err
	}
	dj.gen++
	for seq, r := range dj.landed {
		if r.txn != nil {
			doomed = append(doomed, r.key)
		}
		delete(dj.landed, seq)
	}
	slices.Sort(doomed)
	j.backlog.Add(-int64(len(dj.queued)))
	dj.queued = nil
	dj.durableTo = dj.nextSeq
	j.wakeLocked(dj)
	return doomed
}

// advanceLocked walks the watermark over contiguously landed records,
// dispatching each one's checkpoint in sequence order, then wakes any
// barriers the new watermark satisfies. Caller holds dj.mu.
func (j *Journal) advanceLocked(dj *dirJournal) {
	for {
		r, ok := dj.landed[dj.durableTo]
		if !ok {
			break
		}
		delete(dj.landed, dj.durableTo)
		dj.durableTo++
		if r.txn == nil {
			continue // sequence hole: nothing to checkpoint
		}
		// Time to watermark: seal → contiguous durability. This is what a
		// barrier waiting on this record actually experiences.
		j.hWatermark.ObserveTrace(j.env.Now()-r.sealAt, r.sc.Trace)
		if !j.ckptQ(dj.dir).Send(&ckptItem{
			dj: dj, txn: r.txn, seq: r.seq, ops: r.ops, del: []string{r.key},
			sc: r.sc, tenant: r.tenant,
		}) {
			if dj.err == nil {
				dj.err = fmt.Errorf("journal: shut down before checkpoint of %s: %w", r.key, types.ErrIO)
			}
		}
	}
	j.wakeLocked(dj)
}

// wakeLocked releases every barrier whose target the watermark has reached.
// Caller holds dj.mu.
func (j *Journal) wakeLocked(dj *dirJournal) {
	kept := dj.waiters[:0]
	for _, w := range dj.waiters {
		if dj.durableTo >= w.target {
			w.ch.Send(struct{}{})
		} else {
			kept = append(kept, w)
		}
	}
	dj.waiters = kept
}

// markSeqResolved records a sequence slot that was written (or abandoned)
// outside the pipeline — 2PC prepare and decision records are PUT
// synchronously — so the durability watermark can pass it.
func (j *Journal) markSeqResolved(dj *dirJournal, seq uint64) {
	dj.mu.Lock()
	if seq >= dj.durableTo {
		dj.landed[seq] = &record{seq: seq, gen: dj.gen}
		j.advanceLocked(dj)
	}
	dj.mu.Unlock()
}

// Barrier seals dir's running transaction — cancelling the armed commit
// timer under the directory lock, so a superseded tick cannot enqueue
// redundant work — and waits until every record this client sealed for dir
// is durable in the object store. It does not wait for checkpoints: a
// durable record is recoverable by the next leader's replay, which is all
// fsync promises. Any earlier async commit or checkpoint error is surfaced
// (and consumed) here.
func (j *Journal) Barrier(dir types.Ino) error {
	j.cBarriers.Inc()
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return fmt.Errorf("journal: shut down during barrier: %w", types.ErrIO)
	}
	dj := j.dirJournalLocked(dir)
	j.mu.Unlock()

	dj.mu.Lock()
	if dj.scheduled {
		if dj.cancel != nil {
			dj.cancel() // the forced commit supersedes the timed one
		}
		dj.scheduled, dj.cancel = false, nil
	}
	j.sealLocked(dj)
	if dj.durableTo >= dj.nextSeq {
		err := dj.err
		dj.err = nil
		dj.mu.Unlock()
		return err
	}
	w := durWaiter{target: dj.nextSeq, ch: sim.NewChan[struct{}](j.env)}
	dj.waiters = append(dj.waiters, w)
	dj.mu.Unlock()
	if _, ok := w.ch.Recv(); !ok {
		return fmt.Errorf("journal: shut down during barrier: %w", types.ErrIO)
	}
	return dj.takeErr()
}

// Flush is the strong barrier: it commits dir's running transaction and
// waits until every record is durable and checkpointed into the original
// objects, leaving the journal empty. Lease handoff requires it — a cleanly
// released directory is loaded by the next leader without journal replay.
func (j *Journal) Flush(dir types.Ino) error {
	barrierErr := j.Barrier(dir)
	// Even after a commit failure the records that did land have checkpoints
	// in flight; drain them so the handoff invariant (empty journal) holds.
	dj := j.dirJournal(dir)
	done := sim.NewChan[error](j.env)
	if !j.ckptQ(dir).Send(&ckptItem{dj: dj, done: done}) {
		if barrierErr != nil {
			return barrierErr
		}
		return fmt.Errorf("journal: shut down during flush: %w", types.ErrIO)
	}
	err, ok := done.Recv()
	if !ok {
		if barrierErr != nil {
			return barrierErr
		}
		return fmt.Errorf("journal: shut down during flush: %w", types.ErrIO)
	}
	if barrierErr != nil {
		return barrierErr
	}
	return err
}

// FlushAll flushes every directory this client has journaled, looping until
// the directory set is stable: a directory journaled concurrently with the
// sweep is picked up by a later pass instead of being silently skipped.
func (j *Journal) FlushAll() error { return j.sweep(j.Flush) }

// BarrierAll is FlushAll's durability-only counterpart: every acknowledged
// mutation in every directory becomes durable, but checkpoints are left to
// the background workers. This is the fsync-per-phase barrier benchmarks and
// applications use.
func (j *Journal) BarrierAll() error { return j.sweep(j.Barrier) }

// sweep applies fn to every journaled directory, re-snapshotting the
// directory set until a pass finds nothing new.
func (j *Journal) sweep(fn func(types.Ino) error) error {
	var firstErr error
	seen := make(map[types.Ino]bool)
	for {
		j.mu.Lock()
		todo := make([]types.Ino, 0, len(j.dirs))
		for d := range j.dirs {
			if !seen[d] {
				todo = append(todo, d)
			}
		}
		j.mu.Unlock()
		if len(todo) == 0 {
			return firstErr
		}
		slices.SortFunc(todo, types.Ino.Compare)
		for _, d := range todo {
			seen[d] = true
			if err := fn(d); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
}

// DropDir forgets dir's journal state (after a clean flush + lease release).
func (j *Journal) DropDir(dir types.Ino) {
	j.mu.Lock()
	delete(j.dirs, dir)
	j.mu.Unlock()
}

// ckptLoop is a checkpoint worker: it applies committed transactions to the
// original objects and invalidates the journal entries.
func (j *Journal) ckptLoop(q *sim.Chan[*ckptItem]) {
	for {
		it, ok := q.Recv()
		if !ok {
			return
		}
		if it.ops != nil {
			it.dj.mu.Lock()
			stuck := it.dj.ckptStuck
			it.dj.mu.Unlock()
			if stuck != nil {
				// An earlier record of this directory failed to apply.
				// Applying this one around the gap could reorder same-name
				// mutations, so leave it (and its journal object) for the
				// ordered replay a NeedRecovery grant runs.
				j.cCkptErrs.Inc()
			} else {
				ckptStart := j.env.Now()
				sp := j.trace.StartChild(it.sc, "journal.checkpoint", "")
				sp.SetDir(it.dj.dir)
				sp.SetTenant(it.tenant)
				if err := j.applyOps(it.dj.dir, it.ops, j.cfg.Crash); err != nil {
					j.cCkptErrs.Inc()
					it.dj.mu.Lock()
					it.dj.ckptStuck = err
					it.dj.mu.Unlock()
					j.recordErr(it.dj, err)
					sp.End(err)
				} else {
					// Fully applied; the journal record still exists, so a crash
					// here makes recovery replay the transaction a second time.
					j.cfg.Crash.Hit(crashpoint.PostCheckpoint)
					for _, key := range it.del {
						del := j.trace.StartChild(sp.Context(), "objstore.delete", key)
						del.SetTenant(it.tenant)
						err := j.tr.Store().Delete(key)
						del.End(err)
						if err != nil {
							// Applied but not invalidated: replay is idempotent,
							// so this is not a barrier error — but the key must
							// go before a clean release (see drainErr).
							it.dj.mu.Lock()
							it.dj.stale = append(it.dj.stale, key)
							it.dj.mu.Unlock()
						}
					}
					j.cCkpts.Inc()
					j.hCkpt.Observe(j.env.Now() - ckptStart)
					sp.End(nil)
				}
			}
		}
		if it.done != nil {
			it.done.Send(j.drainErr(it.dj))
		}
	}
}

// drainErr computes the outcome of a flush drain: stale invalidations are
// retried (faults may have healed), and a stuck checkpoint is reported as a
// persistent error — unlike dj.err it cannot be consumed by an intermediate
// barrier, so a directory with an unapplied journal record can never be
// released clean. Only a recovery replay (Recover) clears it.
func (j *Journal) drainErr(dj *dirJournal) error {
	dj.mu.Lock()
	stale := dj.stale
	dj.stale = nil
	stuck := dj.ckptStuck
	dj.mu.Unlock()
	var kept []string
	var staleErr error
	for _, key := range stale {
		if err := j.tr.Store().Delete(key); err != nil && !errors.Is(err, types.ErrNotExist) {
			kept = append(kept, key)
			if staleErr == nil {
				staleErr = fmt.Errorf("journal: invalidate %s: %w", key, err)
			}
		}
	}
	if len(kept) > 0 {
		dj.mu.Lock()
		dj.stale = append(dj.stale, kept...)
		dj.mu.Unlock()
	}
	if stuck != nil {
		return fmt.Errorf("journal: unapplied record for %s awaits replay: %w", dj.dir.Short(), stuck)
	}
	if staleErr != nil {
		return staleErr
	}
	return dj.takeErr()
}

func (j *Journal) recordErr(dj *dirJournal, err error) {
	dj.mu.Lock()
	if dj.err == nil {
		dj.err = err
	}
	dj.mu.Unlock()
}

func (dj *dirJournal) takeErr() error {
	dj.mu.Lock()
	defer dj.mu.Unlock()
	err := dj.err
	dj.err = nil
	return err
}

// ApplyOps checkpoints a transaction's operations one object after another
// (tools, tests and probes with no environment). The checkpoint workers and
// recovery's replay run the same code as a method of their Journal, which
// fans the independent inode writes out.
func ApplyOps(tr *prt.Translator, dir types.Ino, ops []wire.Op) error {
	return (&Journal{tr: tr}).applyOps(dir, ops, nil)
}

// applyOpsRepair is applyOps for recovery: when the directory's
// checkpointed dentry block fails verification, it is rebuilt from the
// journal operations instead of failing the replay — the journal is the
// authority the checkpoint is derived from. Entries present only in the lost
// block are not recoverable here; the scrubber reports the resulting orphan
// inodes. Rebuilds count against integrity.repaired on the journal's registry.
func (j *Journal) applyOpsRepair(dir types.Ino, ops []wire.Op) error {
	err := j.applyOps(dir, ops, nil)
	if err == nil || !errors.Is(err, types.ErrIntegrity) {
		return err
	}
	// One confirming retry before the destructive rebuild: a transient read
	// fault (a flip on the wire, not rot at rest) must not cost the directory
	// its checkpoint-only entries. Rot at rest fails the re-read identically.
	err = j.applyOps(dir, ops, nil)
	if err == nil || !errors.Is(err, types.ErrIntegrity) {
		return err
	}
	// The corrupt block is unreadable regardless; replaying onto an empty
	// table recovers every journal-covered entry.
	if derr := j.tr.DeleteDentries(dir); derr != nil {
		return fmt.Errorf("journal: drop corrupt dentry block of %s: %w", dir.Short(), derr)
	}
	j.cfg.Obs.Counter("integrity.repaired").Inc()
	return j.applyOps(dir, ops, nil)
}

// applyOps checkpoints a transaction's operations onto the original objects:
// inode records are written/deleted individually (they are independent
// objects: CheckpointFanout at a time), dentry mutations are applied in
// one read-modify-write of the directory's dentry block, and deleting an
// inode also drops its data chunks (and dentry block, for directories).
// Replay is idempotent. crash announces the mid-checkpoint crash site;
// recovery passes nil.
func (j *Journal) applyOps(dir types.Ino, ops []wire.Op, crash *crashpoint.Set) error {
	tr := j.tr
	var dentryDirty bool
	for i := range ops {
		k := ops[i].Kind
		if k == wire.OpAddDentry || k == wire.OpDelDentry {
			dentryDirty = true
		}
	}
	var entries []wire.Dentry
	if dentryDirty {
		var err error
		entries, err = tr.LoadDentries(dir)
		if err != nil {
			return fmt.Errorf("journal: checkpoint load dentries: %w", err)
		}
	}
	byName := make(map[string]int, len(entries))
	for i, de := range entries {
		byName[de.Name] = i
	}

	// Inode-object work items, executed with bounded fan-out below.
	applyInodeOp := func(op *wire.Op) error {
		switch op.Kind {
		case wire.OpSetInode:
			if err := tr.SaveInode(op.Inode); err != nil {
				return fmt.Errorf("journal: checkpoint: %w", err)
			}
		case wire.OpDelInode:
			if err := tr.DeleteInode(op.Ino); err != nil {
				return fmt.Errorf("journal: checkpoint: %w", err)
			}
			if op.Size > 0 {
				if err := tr.DeleteData(op.Ino, op.Size); err != nil {
					return fmt.Errorf("journal: checkpoint: %w", err)
				}
			}
			if op.FType == wire.DirHint {
				// Directories leave a dentry block behind.
				if err := tr.DeleteDentries(op.Ino); err != nil {
					return fmt.Errorf("journal: checkpoint: %w", err)
				}
			}
		}
		return nil
	}

	// A compound transaction often updates the same inode many times (the
	// directory mtime changes on every create); only the final state needs
	// checkpointing. Later inode ops supersede earlier ones (inode numbers
	// are UUIDs and never reused).
	lastInodeOp := make(map[types.Ino]int)
	var inodeOps []*wire.Op
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case wire.OpSetInode, wire.OpDelInode:
			ino, _ := inodeOf(op)
			if at, seen := lastInodeOp[ino]; seen {
				inodeOps[at] = op
				continue
			}
			lastInodeOp[ino] = len(inodeOps)
			inodeOps = append(inodeOps, op)
		case wire.OpAddDentry:
			de := wire.Dentry{Name: op.Name, Ino: op.Ino, Type: op.FType}
			if idx, ok := byName[op.Name]; ok {
				entries[idx] = de
			} else {
				byName[op.Name] = len(entries)
				entries = append(entries, de)
			}
		case wire.OpDelDentry:
			if idx, ok := byName[op.Name]; ok {
				// Swap with the last entry: the block is sorted below, so
				// order is free and one delete moves one entry.
				last := len(entries) - 1
				entries[idx] = entries[last]
				byName[entries[idx].Name] = idx
				entries = entries[:last]
				delete(byName, op.Name)
			}
		}
	}

	err := sim.FanOut(j.env, len(inodeOps), j.cfg.CheckpointFanout, func(i int) error {
		return applyInodeOp(inodeOps[i])
	})
	if err != nil {
		return err
	}

	// Inode objects are written, the dentry block is not: crashing here
	// leaves a half-applied transaction whose record recovery replays.
	crash.Hit(crashpoint.MidCheckpoint)

	if dentryDirty {
		sort.Slice(entries, func(a, b int) bool { return entries[a].Name < entries[b].Name })
		if err := tr.SaveDentries(dir, entries); err != nil {
			return fmt.Errorf("journal: checkpoint: %w", err)
		}
	}
	return nil
}
