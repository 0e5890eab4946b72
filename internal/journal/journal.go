// Package journal implements ArkFS's per-directory journaling (paper §III-E)
// with an asynchronous commit path.
//
// Each directory a client leads gets its own journal: a sequence of objects
// "j:<dir>:<seq>" holding CRC-protected compound transactions. Metadata
// mutations are acknowledged immediately from the in-memory metatable and
// accumulate in a running transaction for up to the commit interval (1 s by
// default). When the interval tick fires, every dirty directory is sealed in
// one pass (cross-directory group commit). As in the paper, a directory has
// one record's PUT in flight at a time, and its PUTs and checkpoints go to
// commit and checkpoint workers mapped statically by directory inode.
//
// Sequence order, durability and what each barrier promises are one rule
// per directory, the pipe type (pipe.go): the watermark advances only
// contiguously, checkpoints follow it in sequence order, and a lost record
// poisons the directory's pipeline until a barrier reports it. Barrier waits
// for durability (fsync); Flush also for the checkpoints (a clean lease
// handoff, whose successor loads without replay).
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

// DefaultConfig matches the paper's settings.
func DefaultConfig() Config {
	return Config{CommitInterval: time.Second, CommitWorkers: 4, CheckpointWorkers: 4, CheckpointFanout: 16}
}

// Journal manages every per-directory journal owned by one client.
type Journal struct {
	env sim.Env
	tr  *prt.Translator
	cfg Config

	putQs  []*sim.Chan[slot[*record]]
	ckptQs []*sim.Chan[*record]

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

	mu     sync.Mutex
	closed bool
	dirs   map[types.Ino]*dirJournal
}

// dirJournal is the journal state of a single led directory.
type dirJournal struct {
	dir types.Ino

	mu       sync.Mutex
	running  []wire.Op         // the running compound transaction
	runInode map[types.Ino]int // where running holds each inode's one inode op
	runSC    obs.SpanContext   // trace of the op that opened the running txn
	cancel   func() bool       // the armed commit timer; nil when none is

	p pipe[*record, *sim.Chan[error]]
}

// record is one sealed journal transaction on its way to the store and then
// to its checkpoint. A rename's resolve and a Flush's drain queue for the
// checkpoint worker as records too, with done set: a resolve's txn carries
// only the ops it applies, and a drain has none.
type record struct {
	dj     *dirJournal
	key    string
	txn    *wire.Txn
	sc     obs.SpanContext
	sealAt time.Duration // env clock at seal; decomposes commit latency into queue wait vs PUT
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
		q := sim.NewChan[slot[*record]](env)
		j.putQs = append(j.putQs, q)
		env.Go(func() { j.putLoop(q) })
	}
	for i := 0; i < cfg.CheckpointWorkers; i++ {
		q := sim.NewChan[*record](env)
		j.ckptQs = append(j.ckptQs, q)
		env.Go(func() { j.ckptLoop(q) })
	}
	return j
}

// Close stops the workers. Buffered but uncommitted mutations are dropped and
// later Log calls are ignored — call FlushAll first for a clean shutdown.
// Parked barriers are answered with a shutdown error.
func (j *Journal) Close() {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	j.closed = true
	djs := j.sortedLocked()
	j.mu.Unlock()
	for _, q := range j.putQs {
		q.Close()
	}
	for _, q := range j.ckptQs {
		q.Close()
	}
	for _, dj := range djs {
		dj.mu.Lock()
		dj.disarm()
		j.settle(dj, dj.p.shut(fmt.Errorf("journal: shut down during barrier: %w", types.ErrIO)))
	}
}

// sortedLocked returns the directories in inode order, so that virtual-clock
// runs of the same seed schedule what each does identically. Caller holds
// j.mu.
func (j *Journal) sortedLocked() []*dirJournal {
	djs := make([]*dirJournal, 0, len(j.dirs))
	for _, dj := range j.dirs {
		djs = append(djs, dj)
	}
	slices.SortFunc(djs, func(a, b *dirJournal) int { return a.dir.Compare(b.dir) })
	return djs
}

// worker returns the queue of the worker statically assigned to dir, the
// paper's mapping by directory inode: one directory's PUTs always go to the
// same commit worker, and its checkpoints serialize through the same
// checkpoint worker, which is what keeps them applied in sequence order.
func worker[T any](qs []*sim.Chan[T], dir types.Ino) *sim.Chan[T] {
	return qs[int(dir.Lo()%uint64(len(qs)))]
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
		dj = &dirJournal{dir: dir}
		dj.p.init(dir)
		j.dirs[dir] = dj
	}
	return dj
}

// run carries out what a transition of dj's pipe asks, in its order:
// checkpoints, then barrier answers, then PUTs. A PUT or checkpoint the
// closed journal cannot queue fails like one the store refused. The caller
// holds dj.mu, and deletes the returned keys once it dropped it.
func (j *Journal) run(dj *dirJournal, fx *pipeFx[*record, *sim.Chan[error]]) (doomed []string) {
	for fx != nil {
		for _, r := range fx.ckpts {
			// Time to watermark: seal → contiguous durability. This is what a
			// barrier waiting on this record actually experiences.
			j.hWatermark.ObserveTrace(j.env.Now()-r.sealAt, r.sc.Trace)
			if !worker(j.ckptQs, dj.dir).Send(r) {
				dj.p.ckptDone(fmt.Errorf("journal: shut down before checkpoint of %s: %w", r.key, types.ErrIO))
			}
		}
		for _, b := range fx.wake {
			b.w.Send(b.err)
		}
		for _, r := range fx.doomed {
			doomed = append(doomed, r.key)
		}
		puts := fx.puts // at most one, read before putFailed reuses fx
		fx = nil
		for _, s := range puts {
			if worker(j.putQs, dj.dir).Send(s) {
				j.gInflight.Add(1)
			} else {
				fx = dj.p.putFailed(s, fmt.Errorf("journal: shut down during commit of %s: %w", s.rec.key, types.ErrIO))
			}
		}
	}
	dj.p.begin()
	return doomed
}

// settle is run, then drops dj.mu and deletes the doomed records.
func (j *Journal) settle(dj *dirJournal, fx *pipeFx[*record, *sim.Chan[error]]) {
	doomed := j.run(dj, fx)
	dj.mu.Unlock()
	j.remove(doomed)
}

func (j *Journal) remove(keys []string) {
	for _, key := range keys {
		_ = j.tr.Store().Delete(key)
	}
}

// disarm cancels the armed commit timer, reporting whether one was armed.
// Caller holds dj.mu.
func (dj *dirJournal) disarm() bool {
	if dj.cancel == nil {
		return false
	}
	dj.cancel()
	dj.cancel = nil
	return true
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
		dj.runSC = rpc.MetaFrom(ctx).Span
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
	// The gauge counts what the running transaction holds (seal takes
	// len(running) back off), the counter what it absorbed.
	grown := len(dj.running) - before
	j.gBuffer.Add(int64(grown))
	j.cCoalesced.Add(int64(len(ops) - grown))
	if dj.cancel == nil {
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
	djs := j.sortedLocked()
	j.mu.Unlock()
	sealed := 0
	for _, dj := range djs {
		dj.mu.Lock()
		var fx *pipeFx[*record, *sim.Chan[error]]
		if dj.disarm() {
			if fx = j.seal(dj); fx != nil {
				sealed++
			}
		}
		j.settle(dj, fx)
	}
	if sealed > 1 {
		j.cGroupSeals.Add(int64(sealed - 1)) // records that rode a shared tick
	}
}

// seal turns dir's running transaction into a sealed record for the PUT
// pipeline, and returns what the pipe asks for it: nil when nothing runs.
// Caller holds dj.mu.
func (j *Journal) seal(dj *dirJournal) *pipeFx[*record, *sim.Chan[error]] {
	if len(dj.running) == 0 {
		return nil
	}
	ops, sc := dj.running, dj.runSC
	dj.running, dj.runInode, dj.runSC = nil, nil, obs.SpanContext{}
	j.gBuffer.Add(-int64(len(ops)))
	seq := dj.p.reserve()
	rec := &record{
		dj:     dj,
		sealAt: j.env.Now(),
		key:    prt.JournalKey(dj.dir, seq),
		txn: &wire.Txn{
			ID:    j.NewTxnID(),
			Dir:   dj.dir,
			Kind:  wire.TxnNormal,
			Stamp: j.env.Now(),
			Ops:   ops,
		},
		sc: sc,
	}
	return dj.p.seal(seq, rec)
}

// putLoop is a put worker: it writes sealed records to the object store and
// reports each outcome to the owning directory's pipe.
func (j *Journal) putLoop(q *sim.Chan[slot[*record]]) {
	for {
		s, ok := q.Recv()
		if !ok {
			return
		}
		rec, dj := s.rec, s.rec.dj
		j.cfg.Crash.Hit(crashpoint.PreJournalPut)
		start := j.env.Now()
		// Queue wait: seal → PUT start. Separates time spent queued behind
		// the directory's PUT in flight from the PUT itself.
		wait := start - rec.sealAt
		j.hCommitWait.ObserveTrace(wait, rec.sc.Trace)
		sp := j.trace.StartChild(rec.sc, "journal.commit", rec.key)
		sp.SetDir(dj.dir)
		sp.SetWait(wait)
		put := j.trace.StartChild(sp.Context(), "objstore.put", rec.key)
		err := j.tr.Store().Put(rec.key, wire.EncodeTxn(rec.txn))
		j.gInflight.Add(-1)
		put.End(err)
		sp.End(err)
		if err != nil {
			j.cCommitErrs.Inc()
			dj.mu.Lock()
			j.settle(dj, dj.p.putFailed(s, fmt.Errorf("journal: commit %s: %w", rec.key, err)))
			continue
		}
		j.cCommits.Inc()
		j.hCommit.ObserveTrace(j.env.Now()-start, rec.sc.Trace)
		// The record is durable: from here on a crash must be recoverable by
		// the next leader's journal replay.
		j.cfg.Crash.Hit(crashpoint.PostJournalPut)
		dj.mu.Lock()
		j.settle(dj, dj.p.putLanded(s))
	}
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
	dj.disarm() // the forced commit supersedes the timed one
	doomed := j.run(dj, j.seal(dj))
	done, err := dj.p.barrier()
	var ch *sim.Chan[error]
	if !done {
		ch = sim.NewChan[error](j.env)
		dj.p.park(ch)
	}
	dj.mu.Unlock()
	j.remove(doomed)
	if !done {
		err, _ = ch.Recv() // Close answers too, so it is never closed
	}
	return err
}

// Flush is the strong barrier: it commits dir's running transaction and
// waits until every record is durable and checkpointed into the original
// objects, leaving the journal empty. Lease handoff requires it — a cleanly
// released directory is loaded by the next leader without journal replay.
func (j *Journal) Flush(dir types.Ino) error {
	err := j.Barrier(dir)
	// Even after a commit failure the records that did land have checkpoints
	// queued; drain them so the handoff invariant (empty journal) holds.
	derr := j.await(&record{dj: j.dirJournal(dir)})
	if err != nil {
		return err
	}
	return derr
}

// await queues r behind its directory's checkpoints and waits for the
// answer. A closed worker still answers what was queued before.
func (j *Journal) await(r *record) error {
	r.done = sim.NewChan[error](j.env)
	if !worker(j.ckptQs, r.dj.dir).Send(r) {
		return fmt.Errorf("journal: shut down before %s's checkpoint worker answered: %w", r.dj.dir.Short(), types.ErrIO)
	}
	err, _ := r.done.Recv()
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

// DropDir forgets dir's journal state after this client gave the directory
// up. None of its checkpoints starts from now on: the records still queued
// stay in the journal, and the next leader's recovery replays them, as after
// a crash.
func (j *Journal) DropDir(dir types.Ino) {
	j.mu.Lock()
	dj := j.dirs[dir]
	delete(j.dirs, dir)
	j.mu.Unlock()
	if dj != nil {
		dj.mu.Lock()
		dj.p.drop()
		dj.mu.Unlock()
	}
}

// ckptLoop is a checkpoint worker: it applies committed transactions to the
// original objects and invalidates the journal entries, and answers a
// Flush's drain.
func (j *Journal) ckptLoop(q *sim.Chan[*record]) {
	for {
		r, ok := q.Recv()
		if !ok {
			return
		}
		if r.txn == nil {
			r.done.Send(j.drain(r.dj))
			continue
		}
		err := j.checkpoint(r)
		if r.done != nil {
			r.done.Send(err)
		}
	}
}

// checkpoint applies one record, or a resolve's ops, if dj's pipe lets it
// start, and deletes its journal object. It returns what a resolve answers.
func (j *Journal) checkpoint(r *record) error {
	dj := r.dj
	dj.mu.Lock()
	err := dj.p.ckptStart()
	dj.mu.Unlock()
	if err != nil {
		j.cCkptErrs.Inc()
		return err
	}
	ckptStart := j.env.Now()
	sp := j.trace.StartChild(r.sc, "journal.checkpoint", "")
	sp.SetDir(dj.dir)
	err = j.applyOps(dj.dir, r.txn.Ops, j.cfg.Crash)
	dj.mu.Lock()
	answer := dj.p.ckptDone(err)
	dj.mu.Unlock()
	if err != nil {
		j.cCkptErrs.Inc()
		sp.End(err)
		return answer
	}
	// Fully applied; the journal record still exists, so a crash here makes
	// recovery replay the transaction a second time.
	j.cfg.Crash.Hit(crashpoint.PostCheckpoint)
	del := j.trace.StartChild(sp.Context(), "objstore.delete", r.key)
	err = j.tr.Store().Delete(r.key)
	del.End(err)
	if err != nil {
		// Applied but not invalidated: replay is idempotent, so this is no
		// error, but the key must go before a clean release (see drain).
		dj.mu.Lock()
		dj.p.invalidateFailed(r.key)
		dj.mu.Unlock()
	}
	j.cCkpts.Inc()
	j.hCkpt.Observe(j.env.Now() - ckptStart)
	sp.End(nil)
	return answer
}

// drain is a Flush's last step, behind every checkpoint queued before it:
// the stale invalidations are retried (faults may have healed), and dj's
// pipe answers.
func (j *Journal) drain(dj *dirJournal) error {
	dj.mu.Lock()
	stale := dj.p.takeStale()
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
	dj.mu.Lock()
	defer dj.mu.Unlock()
	return dj.p.drained(kept, staleErr)
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
