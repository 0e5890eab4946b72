package journal

import (
	"fmt"
	"testing"

	"arkfs/internal/wire"
)

// The cross-directory rename as a model: the coordinator's program, the
// leaders of both directories with their leases, and the records of both
// journals, driven through fate, keepDecision and Rename's Decide and Due —
// the code recovery, the resolver and both legs run. TestTwoPCModelExhaustive
// runs every order of the events below and checks the protocol's three
// promises after every step.

const mTxID = 7

// mLeader is one leader of a directory, the original or a successor.
type mLeader struct {
	alive, leads bool // the process runs; its lease holds
	view         bool // it serves the file's name in its directory
	held         bool // a participant holding the rename (its tentative entry)
}

// mState is the whole system. The source's first leader is the coordinator.
type mState struct {
	cPrep, pPrep   bool  // the coordinator's and the participant's prepare records
	dec            uint8 // the decision record: 0 none, mCommit or mAbort
	wrote          bool  // a decision was ever written
	srcHas, dstHas bool  // the name in each directory's checkpointed dentries

	pc     uint8 // the coordinator's next step (mPrepare ... mDone)
	answer bool  // the participant answered the prepare leg
	commit bool  // what the coordinator decided
	ack    bool  // the participant answered the decision leg
	prepBy uint8 // which destination leader prepared, plus one

	src, dst   [3]mLeader // leaders, in order; the last one is current
	nSrc, nDst uint8
}

const (
	mCommit = 1
	mAbort  = 2
)

// The coordinator's program counter.
const (
	mPrepare = iota // write its own prepare
	mAwait          // wait for the participant's answer
	mDecide         // write the decision
	mResolve        // apply or discard its own side
	mTell           // send the decision leg
	mCollect        // delete the decision once acknowledged
	mDone
)

func (s *mState) srcLeader() *mLeader { return &s.src[s.nSrc-1] }
func (s *mState) dstLeader() *mLeader { return &s.dst[s.nDst-1] }

// coordRecs is the coordinator's journal as a scan finds it.
func (s *mState) coordRecs() []scanned {
	var recs []scanned
	if s.cPrep {
		recs = append(recs, scanned{txn: &wire.Txn{ID: mTxID, Kind: wire.TxnCoordPrepare}})
	}
	switch s.dec {
	case mCommit:
		recs = append(recs, scanned{txn: &wire.Txn{ID: mTxID, Kind: wire.TxnCommit}})
	case mAbort:
		recs = append(recs, scanned{txn: &wire.Txn{ID: mTxID, Kind: wire.TxnAbort}})
	}
	return recs
}

// partRecs is the participant's journal as a scan finds it.
func (s *mState) partRecs() []scanned {
	if !s.pPrep {
		return nil
	}
	return []scanned{{txn: &wire.Txn{ID: mTxID, Kind: wire.TxnPrepare}}}
}

type tpModel struct {
	t      *testing.T
	seen   map[mState]float64
	path   []string
	states int
	failed bool
}

func (m *tpModel) fail(format string, args ...any) {
	if !m.failed {
		m.failed = true
		m.t.Errorf("after %v: "+format, append([]any{m.path}, args...)...)
	}
}

type tpStep struct {
	label string
	run   func(*mState)
}

// explore returns the number of sequences of steps that start in s.
func (m *tpModel) explore(s mState) float64 {
	if n, ok := m.seen[s]; ok {
		return n
	}
	m.states++
	var n float64
	for _, step := range m.steps(s) {
		if m.failed {
			break
		}
		next := s
		m.path = append(m.path, step.label)
		step.run(&next)
		if next == s { // a tick that found nothing to do
			m.path = m.path[:len(m.path)-1]
			continue
		}
		m.check(&next)
		n += 1 + m.explore(next)
		m.path = m.path[:len(m.path)-1]
	}
	m.seen[s] = n
	return n
}

// steps lists what may happen next in s: the coordinator's next step (only
// while its process runs), the participant's answers, a resolver tick on any
// live destination leader, a lease lapse or a crash of any leader, and a
// next-leader recovery of a directory whose current leader lost its lease.
func (m *tpModel) steps(s mState) []tpStep {
	var steps []tpStep
	add := func(label string, run func(*mState)) { steps = append(steps, tpStep{label, run}) }
	c := s.src[0]
	if c.alive {
		m.coordinator(&s, add)
	}
	// The prepare leg is in flight from the coordinator's prepare on, until
	// the destination's current leader takes it: it may arrive after the
	// coordinator stopped waiting, or died.
	if l := s.dstLeader(); s.pc != mPrepare && s.prepBy == 0 && l.alive && l.leads {
		add("P.prepare", func(s *mState) {
			s.pPrep, s.prepBy = true, s.nDst
			*s.dstLeader() = mLeader{alive: true, leads: true, view: true, held: true}
		})
	}
	if s.pc == mAwait && s.prepBy > 0 && s.dst[s.prepBy-1].alive && !s.answer {
		add("P.answer", func(s *mState) { s.answer = true })
	}
	for i := range s.nDst {
		if l := s.dst[i]; l.alive && l.held {
			add(fmt.Sprintf("tick(dst%d)", i), func(s *mState) { m.tick(s, i) })
		}
	}
	for _, side := range []string{"src", "dst"} {
		ls, n := &s.src, s.nSrc
		if side == "dst" {
			ls, n = &s.dst, s.nDst
		}
		for i := range n {
			if ls[i].leads {
				add(fmt.Sprintf("lapse(%s%d)", side, i), func(s *mState) { s.side(side)[i].leads = false })
			}
			if ls[i].alive {
				add(fmt.Sprintf("crash(%s%d)", side, i), func(s *mState) {
					s.side(side)[i] = mLeader{}
				})
			}
		}
		if !ls[n-1].leads && n < uint8(len(ls)) {
			add("recover("+side+")", func(s *mState) { m.recover(s, side) })
		}
	}
	return steps
}

func (s *mState) side(name string) *[3]mLeader {
	if name == "src" {
		return &s.src
	}
	return &s.dst
}

// coordinator adds the coordinator's next step, as core's coordinateRename
// takes it.
func (m *tpModel) coordinator(s *mState, add func(string, func(*mState))) {
	switch s.pc {
	case mPrepare:
		if s.src[0].leads {
			add("C.prepare", func(s *mState) { s.cPrep, s.pc = true, mAwait })
		}
	case mAwait:
		add("C.hears", func(s *mState) { s.pc = mDecide }) // the answer, or a failed call
	case mDecide:
		add("C.decide", func(s *mState) {
			commit, write := Rename{Coord: true}.Decide(s.answer, s.src[0].leads)
			s.commit = commit
			if !write {
				s.pc = mResolve
				return
			}
			s.dec, s.wrote, s.pc = mAbort, true, mResolve
			if commit {
				s.dec = mCommit
				s.src[0].view = false
			}
		})
	case mResolve:
		add("C.resolve", func(s *mState) {
			s.cPrep = false
			if s.commit {
				s.srcHas = false
			}
			s.pc = mTell
			if !s.wrote {
				s.pc = mDone
			}
		})
	case mTell:
		for _, o := range []struct {
			label            string
			delivered, heard bool
		}{{"C.tell", true, true}, {"C.tellUnheard", true, false}, {"C.tellLost", false, false}} {
			add(o.label, func(s *mState) {
				l := s.dstLeader()
				served := o.delivered && l.alive && l.leads
				if served && l.held {
					m.resolve(s, l, s.commit)
				}
				s.ack, s.pc = served && o.heard, mCollect
			})
		}
	case mCollect:
		add("C.collect", func(s *mState) {
			if s.ack {
				s.dec = 0 // DeleteDecision
			}
			s.pc = mDone
		})
	}
}

// resolve is a participant's resolution of its held rename: durable first
// (ResolvePrepared), its table already changed.
func (m *tpModel) resolve(s *mState, l *mLeader, commit bool) {
	if !commit {
		m.presumedAbort(s)
	}
	l.held, l.view = false, commit
	s.pPrep = false
	if commit {
		s.dstHas = true
	}
}

// presumedAbort checks a participant's abort: no participant may abort while
// the coordinator's directory can still commit.
func (m *tpModel) presumedAbort(s *mState) {
	c := s.src[0]
	if s.dec == mCommit || c.alive && c.leads && (s.pc < mDecide || s.pc == mDecide && s.answer) {
		m.fail("a participant aborts while the coordinator can still commit")
	}
}

// tick is the resolver on destination leader i, a lease period after it took
// the prepare on.
func (m *tpModel) tick(s *mState, i uint8) {
	l := &s.dst[i]
	if !(Rename{}).Due(1, 1, l.leads) {
		return
	}
	if f := fate(s.coordRecs(), mTxID, false); f.Decided() {
		m.resolve(s, l, f == Commit)
	}
}

// recover is the next leader of a directory taking it over: recoverDir's
// handling of the 2PC records, then a table loaded from the checkpoints.
func (m *tpModel) recover(s *mState, side string) {
	if side == "src" {
		if s.cPrep {
			switch fate(s.coordRecs(), mTxID, true) {
			case Commit:
				s.srcHas = false
			case Abort:
			default:
				m.fail("the coordinator's successor left its prepare undecided")
			}
			s.cPrep = false
		}
		if s.dec != 0 && !keepDecision(s.partRecs(), mTxID) {
			s.dec = 0
		}
		s.src[s.nSrc] = mLeader{alive: true, leads: true, view: s.srcHas}
		s.nSrc++
		return
	}
	l := mLeader{alive: true, leads: true}
	if s.pPrep {
		switch f := fate(s.coordRecs(), mTxID, false); f {
		case Commit, Abort:
			if f == Abort {
				m.presumedAbort(s)
			}
			s.pPrep = false
			s.dstHas = s.dstHas || f == Commit
		default:
			l.held = true
		}
	}
	l.view = s.dstHas || l.held
	s.dst[s.nDst] = l
	s.nDst++
}

// check states two of the promises: once both sides resolve, the file has
// exactly one of its two names, in what each directory's current leader
// serves and in what its next leader would load; and a commit decision
// outlives every participant that has not resolved durably (an abort's
// absence reads as an abort, so a prepare leg that lands after it was
// collected is harmless). The third is presumedAbort.
func (m *tpModel) check(s *mState) {
	if s.wrote && s.commit && s.dec == 0 && s.pPrep {
		m.fail("the commit decision is gone while the participant's prepare stands")
	}
	if d := s.dstLeader(); s.cPrep || s.pPrep || d.leads && d.held {
		return // not resolved yet
	}
	// What a directory shows: its leader's table while its lease holds,
	// else what the next leader loads.
	served := func(l mLeader, durable bool) bool {
		if !l.leads {
			return durable
		}
		if l.view != durable {
			m.fail("a leader serves %v over its store's %v", l.view, durable)
		}
		return l.view
	}
	if served(*s.srcLeader(), s.srcHas) == served(*s.dstLeader(), s.dstHas) {
		m.fail("resolved with the file at src=%v dst=%v (stored src=%v dst=%v)",
			s.srcLeader().view, s.dstLeader().view, s.srcHas, s.dstHas)
	}
}

// TestTwoPCModelExhaustive runs every order of the rename's events: the
// coordinator's prepare, decision (with the answer heard or not), resolution,
// decision leg (answered, unanswered or lost) and garbage collection; the
// participant's prepare and answer; a resolver tick on any live destination
// leader; a lease lapse or a crash of any leader at any step; and up to two
// next-leader recoveries of each directory.
func TestTwoPCModelExhaustive(t *testing.T) {
	m := &tpModel{t: t, seen: map[mState]float64{}}
	var s mState
	s.srcHas = true
	s.src[0] = mLeader{alive: true, leads: true, view: true}
	s.dst[0] = mLeader{alive: true, leads: true}
	s.nSrc, s.nDst = 1, 1
	n := m.explore(s)
	t.Logf("%.0f sequences over %d states", n, m.states)
}
