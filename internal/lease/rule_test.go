package lease

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// The holder's three questions at and around their boundaries: a grant of
// 4 s requested at 10 s ends at 14 s, serves until 13 s (a quarter of the
// period kept in hand) and falls due for extension past 12 s (half left).
// The grant's own period sets both, whatever was granted before.
func TestDirLeaseBoundaries(t *testing.T) {
	const s = time.Second
	var l DirLease
	l.Grant(10*s, 4*s, 7)
	if l.ID() != 7 || l.until != 14*s || l.Period() != 4*s {
		t.Fatalf("Grant(10s, 4s, 7) = %+v", l)
	}
	for _, tc := range []struct {
		now               time.Duration
		serves, live, due bool
	}{
		{10 * s, true, true, false},
		{12 * s, true, true, false},
		{12*s + 1, true, true, true},
		{13*s - 1, true, true, true},
		{13 * s, false, true, true},
		{14*s - 1, false, true, true},
		{14 * s, false, false, true},
		{20 * s, false, false, true},
	} {
		if got := l.Serves(tc.now); got != tc.serves {
			t.Errorf("Serves(%v) = %v, want %v", tc.now, got, tc.serves)
		}
		if got := l.Live(tc.now); got != tc.live {
			t.Errorf("Live(%v) = %v, want %v", tc.now, got, tc.live)
		}
		if got := l.Due(tc.now); got != tc.due {
			t.Errorf("Due(%v) = %v, want %v", tc.now, got, tc.due)
		}
	}
	// A shorter re-grant replaces the period, and with it both margins.
	l.Grant(20*s, 400*time.Millisecond, 8)
	if !l.Serves(20*s+299*time.Millisecond) || l.Serves(20*s+300*time.Millisecond) {
		t.Errorf("a 400ms grant at 20s must serve until 20.3s: %+v", l)
	}
	if l.Due(20*s+200*time.Millisecond) || !l.Due(20*s+201*time.Millisecond) {
		t.Errorf("a 400ms grant at 20s falls due past 20.2s: %+v", l)
	}
}

// A holder that lets its lease lapse without a release is a crashed one to
// everybody else: a later now answers a rival with the grace wait, then with
// a grant that recovers. The holder itself, idle rather than dead, gets its
// chain back in place.
func TestLapsedLeaseTakesTheCrashPath(t *testing.T) {
	const p = time.Hour
	tab := newGrants(p)
	dir := types.RootIno
	g, _ := tab.acquire(dir, "c1", 0)
	if !g.Granted {
		t.Fatalf("first grant: %+v", g)
	}
	if w, _ := tab.acquire(dir, "c2", p); !w.Wait || w.RetryAfter != p {
		t.Fatalf("at the lapse a rival waits out the grace: %+v", w)
	}
	if r, _ := tab.acquire(dir, "c1", p+1); !r.Granted || !r.SameLeader || r.LeaseID != g.LeaseID {
		t.Fatalf("the idle holder re-acquires in place: %+v", r)
	}
	if r, v := tab.acquire(dir, "c2", 3*p+1); !r.Granted || !r.NeedRecovery || v != changed {
		t.Fatalf("past the grace a rival recovers: %+v", r)
	}
}

// A table resumed from a snapshot that lacks a directory stands an unknown
// holder in for it, whose lease ends one period after the resume. No client
// is that holder, so an Acquire meanwhile waits out the lease and its grace
// instead of being sent to an address nobody listens on, then recovers.
func TestStandInHolderIsWaitedOut(t *testing.T) {
	const p = time.Hour
	src := types.NewInoSource(3)
	known, dir := src.Next(), src.Next()
	before := newGrants(p)
	if g, _ := before.acquire(known, "c1", 0); !g.Granted {
		t.Fatalf("first grant: %+v", g)
	}
	snap, err := decodeSnapshot(encodeSnapshot(before))
	if err != nil {
		t.Fatal(err)
	}
	const at = 10 * p
	tab := newGrants(p)
	tab.resume(snap, at)
	if w, _ := tab.acquire(dir, "c2", at+1); !w.Wait || w.Redirect || w.Leader != "" || w.RetryAfter != 2*p-1 {
		t.Fatalf("during the stand-in's lease: %+v, want a wait to the end of its grace", w)
	}
	if w, _ := tab.acquire(dir, "c2", at+p); !w.Wait || w.RetryAfter != p {
		t.Fatalf("during the stand-in's grace: %+v", w)
	}
	if r, v := tab.acquire(dir, "c2", at+2*p); !r.Granted || !r.NeedRecovery || v != changed {
		t.Fatalf("past the grace: %+v, want a grant that recovers", r)
	}
}

// The model below composes the manager's rule with two holders' DirLeases.
// Time is in ticks of true time; each party's clock reads zero + rate·tick,
// at 3 units a tick (rate 1) or 4 (rate 4/3, DESIGN.md §5.9's bound), and a
// lease lasts mPeriod units on the clock that counts it.

const mPeriod = 12

// mHolder is one client's side of the directory: its lease and whether it
// has a table to serve from.
type mHolder struct {
	l          DirLease
	table      bool
	busy       bool // a request or a recovery of its is in flight
	recovering bool // granted NeedRecovery, replay not yet done
	id         uint64
	dead       bool
}

// mMsg is a request to the manager or an answer to a holder: of the answer,
// what the holder acts on (granted is an mRDAns's OK).
type mMsg struct {
	kind                                     uint8 // mAcq, mRel, mRD (requests); mAns, mRDAns (answers)
	to                                       uint8 // the holder
	clean, granted, same, recovery, redirect bool
	sent                                     time.Duration // the request's, on the holder's clock
	id                                       uint64        // the chain
}

const (
	mAcq = iota
	mRel
	mRD
	mAns
	mRDAns
)

// Who holds the records a serving leader acknowledged that the store does
// not have yet: nobody (mStored), a holder's table (0 or 1), or only the
// journal (mOrphaned), after the table that held them went without a clean
// release.
const (
	mStored   = -1
	mOrphaned = 2
)

// mState is the whole system: the holders, the manager A and the answers in
// flight.
type mState struct {
	tick  int
	h     [2]mHolder
	owner *grants
	zero  time.Duration // the manager's clock zero
	quiet time.Duration // the manager grants nothing before this, on its clock
	msgs  []mMsg
	dirty int8
	// how often each may still happen
	acqs, rels, restarts, crashes int8
}

// mConfig fixes the clocks: the rates of h0, h1 and A.
type mConfig struct{ rate [3]time.Duration }

type mModel struct {
	t      *testing.T
	cfg    mConfig
	dir    types.Ino
	seen   map[uint64]bool
	path   []mStep
	states int
	moves  int
	failed bool
}

var mAddr = [2]rpc.Addr{"h0", "h1"}

// Clocks. Holders start at 0 and 7, A at 100; a restarted manager's clock
// reads 1000 more than its predecessor's did, so an instant carried across
// the restart would show.
func (m *mModel) hNow(s *mState, i int) time.Duration {
	return time.Duration(7*i) + m.cfg.rate[i]*time.Duration(s.tick)
}

func (m *mModel) oNow(s *mState) time.Duration {
	return s.zero + m.cfg.rate[2]*time.Duration(s.tick)
}

func (m *mModel) fail(format string, args ...any) {
	if !m.failed {
		m.failed = true
		m.t.Errorf("after %v: "+format, append([]any{m.path}, args...)...)
	}
}

func (s *mState) clone() *mState {
	c := *s
	g := *s.owner
	g.dirs = make(map[types.Ino]*DirGrant, len(s.owner.dirs))
	for k, v := range s.owner.dirs {
		d := *v
		g.dirs[k] = &d
	}
	c.owner = &g
	c.msgs = slices.Clone(s.msgs)
	return &c
}

// key names the state up to a shift of true time: every instant as its
// distance from its clock's now, and a distance past which nothing a party
// decides changes any more (a lease lapsed, a grace ended) as that bound.
// The rule keeps no instant of another clock, so shifted states have the
// same futures, and time may pass without bound.
func (m *mModel) key(s *mState) uint64 {
	b := make([]byte, 0, 256)
	n := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
	}
	f := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	on := m.oNow(s)
	since := func(t, now, floor time.Duration) int64 { return int64(max(t-now, floor)) }
	n(since(s.quiet, on, 0), int64(s.dirty), int64(s.acqs), int64(s.rels), int64(s.restarts), int64(s.crashes))
	for i, h := range s.h {
		n(int64(h.l.id), since(h.l.until, m.hNow(s, i), mPeriod/4), f(h.table), f(h.busy), f(h.recovering), int64(h.id),
			f(h.dead))
	}
	g := s.owner
	n(int64(g.nextID), since(g.readyAt, on, 0), f(g.restarted), since(g.unknownExpiry, on, -mPeriod), int64(len(g.dirs)))
	for _, d := range g.dirs {
		b = append(b, d.Holder...)
		b = append(b, '|')
		b = append(b, d.PrevHolder...)
		n(int64(d.LeaseID), since(d.Expiry, on, -mPeriod), f(d.Clean), f(d.Recovering), int64(d.RecoverID))
	}
	msgs := make([][16]byte, len(s.msgs))
	for i, msg := range s.msgs {
		age := since(msg.sent, m.hNow(s, int(msg.to)), -mPeriod*3/4)
		msgs[i] = [16]byte{msg.kind, msg.to, byte(f(msg.clean)), byte(f(msg.granted)), byte(f(msg.same)),
			byte(f(msg.recovery)), byte(f(msg.redirect)), byte(msg.id), byte(age + 64)}
	}
	slices.SortFunc(msgs, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) })
	for _, msg := range msgs {
		b = append(b, msg[:]...)
	}
	return maphash.Bytes(mSeed, b)
}

// mSeed hashes model states. A collision would leave a state unexplored;
// with some 10⁴ states in each run, at odds below one in a billion.
var mSeed = maphash.MakeSeed()

// explore visits every state reachable from s.
func (m *mModel) explore(s *mState) {
	k := m.key(s)
	if m.seen[k] {
		return
	}
	m.seen[k] = true
	m.states++
	for _, step := range m.steps(s) {
		if m.failed {
			return
		}
		next := s.clone()
		m.path = append(m.path, step)
		m.apply(next, step)
		m.moves++
		m.check(next)
		m.explore(next)
		m.path = m.path[:len(m.path)-1]
	}
}

// mStep is one event: what happens, to which holder, and how (clean,
// from a snapshot, landed); a delivery names its message.
type mStep struct {
	what uint8
	i    int
	how  bool
	msg  mMsg
}

const (
	mTick = iota
	mAsk
	mRelease
	mRecover
	mRecoverFails
	mCrash
	mRestart
	mDeliver
)

func (e mStep) String() string {
	names := [...]string{"tick", "acquire", "release", "recover", "recoverFails", "crash", "restart", "deliver"}
	switch e.what {
	case mTick:
		return names[e.what]
	case mRestart:
		return fmt.Sprintf("%s/%v", names[e.what], e.how)
	case mDeliver:
		return fmt.Sprintf("deliver%+v", e.msg)
	case mRelease:
		return fmt.Sprintf("%s%d/clean=%v", names[e.what], e.i, e.how)
	}
	return fmt.Sprintf("%s%d", names[e.what], e.i)
}

// steps lists what may happen next in s: true time passes; a holder asks for
// the lease, gives it up, finishes or fails a recovery, or dies; the manager
// restarts; or an answer in flight is delivered. A request reaches the
// manager as it is sent: held longer, it would only have been sent earlier
// than the holder counts from.
func (m *mModel) steps(s *mState) []mStep {
	var steps []mStep
	for i := range s.h {
		h := &s.h[i]
		if h.dead {
			continue
		}
		if !h.busy && s.acqs > 0 {
			steps = append(steps, mStep{what: mAsk, i: i})
		}
		if !h.busy && h.table && s.rels > 0 {
			steps = append(steps, mStep{what: mRelease, i: i, how: true}, mStep{what: mRelease, i: i})
		}
		if h.recovering {
			steps = append(steps, mStep{what: mRecover, i: i}, mStep{what: mRecoverFails, i: i})
		}
		if s.crashes > 0 {
			steps = append(steps, mStep{what: mCrash, i: i})
		}
	}
	if s.restarts > 0 {
		steps = append(steps, mStep{what: mRestart, how: true}, mStep{what: mRestart})
	}
	for j, msg := range s.msgs {
		if slices.Contains(s.msgs[:j], msg) {
			continue
		}
		steps = append(steps, mStep{what: mDeliver, i: j, msg: msg})
	}
	return append(steps, mStep{what: mTick})
}

func (m *mModel) apply(s *mState, e mStep) {
	i := e.i
	h := &s.h[i]
	switch e.what {
	case mTick:
		s.tick++
	case mAsk:
		s.acqs--
		m.send(s, mMsg{kind: mAcq, to: uint8(i), sent: m.hNow(s, i)})
	case mRelease:
		s.rels--
		h.table = false
		if e.how {
			s.dirty = mStored // the flush that makes a release clean
		} else if s.dirty == int8(i) {
			s.dirty = mOrphaned
		}
		m.send(s, mMsg{kind: mRel, to: uint8(i), clean: e.how, id: h.l.ID()})
	case mRecover:
		h.recovering = false
		s.dirty = mStored // replay applies the journal
		m.send(s, mMsg{kind: mRD, to: uint8(i), sent: m.hNow(s, i), id: h.id})
	case mRecoverFails:
		h.recovering = false
		m.send(s, mMsg{kind: mRel, to: uint8(i), id: h.id})
	case mCrash:
		s.crashes--
		*h = mHolder{dead: true}
		if s.dirty == int8(i) {
			s.dirty = mOrphaned
		}
		s.msgs = slices.DeleteFunc(s.msgs, func(msg mMsg) bool { return msg.to == uint8(i) })
	case mRestart:
		m.restart(s, e.how)
	case mDeliver:
		s.msgs = slices.Delete(s.msgs, i, i+1)
		m.deliver(s, e.msg)
	}
}

// send starts a request: the holder waits for it to be answered.
func (m *mModel) send(s *mState, msg mMsg) {
	s.h[msg.to].busy = true
	m.deliver(s, msg)
}

// restart replaces the manager by one whose clock has another zero:
// resumed from a snapshot of its table, or amnesiac.
func (m *mModel) restart(s *mState, snap bool) {
	s.restarts--
	prev := s.owner
	s.zero += 1000
	now := m.oNow(s)
	s.owner = newGrants(mPeriod)
	if !snap {
		s.owner.restart(now)
		s.quiet = now + mPeriod
		return
	}
	st, err := decodeSnapshot(encodeSnapshot(prev))
	if err != nil {
		m.t.Fatal(err)
	}
	s.owner.resume(st, now)
	s.quiet = 0
}

// deliver hands a request to the manager, or an answer to its holder,
// which acts on it as core.Client.acquireLease and becomeLeader do.
func (m *mModel) deliver(s *mState, msg mMsg) {
	now := m.oNow(s)
	i := int(msg.to)
	h := &s.h[i]
	if h.dead && msg.kind >= mAns {
		return
	}
	switch msg.kind {
	case mAcq:
		r, _ := s.owner.acquire(m.dir, mAddr[i], now)
		if r.Granted && now < s.quiet {
			m.fail("a restarted manager granted h%d before its quiesce ended", i)
		}
		s.msgs = append(s.msgs, mMsg{kind: mAns, to: msg.to, sent: msg.sent, id: r.LeaseID,
			granted: r.Granted, same: r.SameLeader, recovery: r.NeedRecovery, redirect: r.Redirect})
	case mRD:
		r, _ := s.owner.recoveryDone(m.dir, mAddr[i], msg.id, now)
		s.msgs = append(s.msgs, mMsg{kind: mRDAns, to: msg.to, sent: msg.sent, id: r.LeaseID, granted: r.OK})
	case mRel:
		s.owner.release(m.dir, mAddr[i], msg.id, msg.clean, now)
		if !h.dead {
			h.busy = false
		}
	case mAns:
		h.busy = false
		switch {
		case msg.granted && msg.recovery:
			h.table, h.busy, h.recovering, h.id = false, true, true, msg.id
			if s.dirty == int8(i) {
				s.dirty = mOrphaned
			}
		case msg.granted && msg.same && h.table:
			h.l.Grant(msg.sent, mPeriod, msg.id) // the table it has goes on
		case msg.granted:
			h.l.Grant(msg.sent, mPeriod, msg.id)
			m.install(s, i) // loaded from the store
		case msg.redirect && h.table:
			h.table = false
			if s.dirty == int8(i) {
				s.dirty = mOrphaned
			}
		}
	case mRDAns:
		h.busy = false
		if msg.granted {
			h.l.Grant(msg.sent, mPeriod, msg.id)
			m.install(s, i)
		}
	}
}

// install puts a fresh table to use if the lease still serves. It must not
// miss records a leader acknowledged: an unclean end without a recovery
// since. A serving leader acknowledges records the store does not have.
func (m *mModel) install(s *mState, i int) {
	if s.h[i].table = s.h[i].l.Serves(m.hNow(s, i)); !s.h[i].table {
		return
	}
	if s.dirty != mStored {
		m.fail("h%d serves a table without the records of an unclean end: no recovery came between", i)
	}
	s.dirty = int8(i)
}

func (m *mModel) serves(s *mState, i int) bool {
	h := s.h[i]
	return !h.dead && h.table && h.l.Serves(m.hNow(s, i))
}

// check states the rule's invariants in true time: at most one holder
// serves the directory, and one that serves does so within the lease the
// manager counts for its chain, the stand-in for a forgotten holder
// included (the grace then covers what the leader handed out meanwhile).
// deliver and install check the other two: a grant comes after the quiesce
// of a restart, and nothing serves without the records acknowledged before
// an unclean end.
func (m *mModel) check(s *mState) {
	n := 0
	for i := range s.h {
		if !m.serves(s, i) {
			continue
		}
		n++
		g := s.owner.dirs[m.dir]
		if g == nil && s.owner.restarted {
			g = &DirGrant{Holder: unknownHolder, Expiry: s.owner.unknownExpiry}
		}
		switch {
		case g == nil:
			m.fail("h%d serves a directory its manager holds free", i)
		case g.Holder != unknownHolder && (g.Holder != mAddr[i] || g.LeaseID != s.h[i].l.ID()):
			m.fail("h%d serves chain %d while its manager records %s's chain %d", i, s.h[i].l.ID(), g.Holder, g.LeaseID)
		case m.oNow(s) >= g.Expiry:
			m.fail("h%d serves past the end of the lease its manager counts", i)
		}
	}
	if n > 1 {
		m.fail("two holders serve the directory")
	}
}

// mFamily is what may happen besides time passing and messages being
// delivered, after h0 was granted the lease and serves: how many more
// Acquires the holders send, releases and deaths among them, and restarts of
// the manager.
type mFamily struct {
	name                          string
	acqs, rels, crashes, restarts int8
}

// TestDirLeaseTwoSided composes one rule with two holders and explores every
// order of the events of each family below, for every assignment of the
// clock rates 1 and 4/3 to the three parties: true time passes; a holder
// sends Acquires and gives the lease up, cleanly or not; a recovery
// finishes, or fails and its holder renounces uncleanly; a holder dies; the
// manager restarts, from a snapshot or without; every answer is delivered in
// any order, or not at all. The invariants are checked after every step.
func TestDirLeaseTwoSided(t *testing.T) {
	families := []mFamily{
		{name: "holders", acqs: 2, rels: 1, crashes: 1},
		{name: "restart", acqs: 1, rels: 1, crashes: 1, restarts: 1},
	}
	var states, steps atomic.Int64
	t.Cleanup(func() { t.Logf("%d states, %d steps", states.Load(), steps.Load()) })
	for _, fam := range families {
		for c := 0; c < 1<<len(mConfig{}.rate); c++ {
			var cfg mConfig
			for p := range cfg.rate {
				cfg.rate[p] = time.Duration(3 + c>>p&1)
			}
			t.Run(fmt.Sprintf("%s/%v", fam.name, cfg.rate), func(t *testing.T) {
				t.Parallel()
				m := &mModel{t: t, cfg: cfg, dir: types.RootIno, seen: map[uint64]bool{}}
				s := &mState{owner: newGrants(mPeriod), zero: 100, dirty: mStored, acqs: fam.acqs + 1, rels: fam.rels,
					crashes: fam.crashes, restarts: fam.restarts}
				m.apply(s, mStep{what: mAsk})
				m.apply(s, mStep{what: mDeliver, msg: s.msgs[0]})
				m.check(s)
				m.explore(s)
				states.Add(int64(m.states))
				steps.Add(int64(m.moves))
			})
		}
	}
}
