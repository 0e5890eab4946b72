package journal

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"arkfs/internal/types"
)

// The model drives one directory's pipe the way the journal's workers do,
// with the object store and the checkpoint worker replaced by choices: each
// PUT in flight lands or fails, the head of the checkpoint queue applies or
// fails, in every order. A record is its index in pmState.recs; a barrier's
// handle is unused (one barrier at a time).
type pmPipe = pipe[int, int]

const (
	pmSeals = 4 // records sealed per sequence
	pmRoom  = 2 * pmSeals
)

var (
	errMPut  = errors.New("model: put failed")
	errMCkpt = errors.New("model: checkpoint failed")
)

// pmRec is a sealed record as the store sees it.
type pmRec struct {
	seq, gen uint64
	state    uint8 // pmPending, pmDurable or pmLost
	// reported: a barrier or drain answered an error after the record was
	// lost, or a reset handed it to recovery.
	reported bool
}

const (
	pmPending uint8 = iota
	pmDurable
	pmLost
)

// The steps. Seals, PUT answers and checkpoints repeat; the rest happen at
// most once in a sequence, and only those of the run's family.
const (
	mvSeal uint8 = iota
	mvLand
	mvFail
	mvCkpt
	mvCkptFail
	mvBarrier
	mvReserve // a 2PC record takes a sequence...
	mvHole    // ...and reports it resolved
	mvResolve // a rename's resolve runs on the checkpoint worker
	mvDrain   // a Flush's drain
	mvReset   // recovery
	mvDrop
)

var pmMoveName = [...]string{"seal", "land", "fail", "ckpt", "ckpt!", "barrier", "reserve", "hole", "resolve", "drain", "reset", "drop"}

type pmMove struct {
	kind uint8
	arg  int // mvLand, mvFail: the index in puts
	rec  int // the record a PUT or checkpoint step is about, for the trail
}

func (mv pmMove) String() string {
	if mv.kind >= mvLand && mv.kind <= mvCkptFail {
		return fmt.Sprint(pmMoveName[mv.kind], mv.rec)
	}
	return pmMoveName[mv.kind]
}

type pmState struct {
	p        pmPipe
	recs     [pmSeals]pmRec
	nrecs    int
	puts     [pmRoom]pmPut // PUTs in flight, in start order
	nputs    int
	queue    [pmRoom]uint8 // the checkpoint worker's queue of records
	nqueue   int
	done     uint16 // the once-only steps that happened, 1<<kind
	hole     uint64 // the 2PC record's sequence
	target   uint64 // the parked barrier's
	parked   bool
	ckptOwed bool   // a checkpoint failed and no barrier or drain answered since
	stuck    bool   // a checkpoint failed since the last reset
	started  uint64 // one past the sequence of the last checkpoint started
}

// pmPut is a PUT in flight: record rec's slot of generation gen.
type pmPut struct{ rec, gen uint8 }

func (s *pmState) slot(q pmPut) slot[int] {
	return slot[int]{seq: s.recs[q.rec].seq, gen: uint64(q.gen), rec: int(q.rec)}
}

func (s *pmState) happened(kind uint8) bool { return s.done&(1<<kind) != 0 }

// cloneInto makes c a copy of s that shares nothing with it.
func (s *pmState) cloneInto(c *pmState) {
	*c = *s
	c.p.queued = slices.Clone(s.p.queued)
	c.p.landed = maps.Clone(s.p.landed)
	c.p.barriers = slices.Clone(s.p.barriers)
	c.p.stale = slices.Clone(s.p.stale)
	c.p.fx = pipeFx[int, int]{}
}

// key encodes everything that decides what may happen next. Every number
// in it is below 256.
func (s *pmState) key(b []byte) []byte {
	p := &s.p
	b = append(b, byte(p.next), byte(p.durableTo), bit(p.busy), bit(p.err != nil), bit(p.stuck != nil), bit(p.dropped))
	for _, q := range p.queued {
		b = append(b, byte(q.rec))
	}
	b = append(b, '|')
	for seq := p.durableTo; seq < p.next; seq++ {
		if l, ok := p.landed[seq]; ok {
			b = append(b, byte(seq), bit(l.hole))
		}
	}
	b = append(b, '|')
	for _, w := range p.barriers {
		b = append(b, byte(w.target))
	}
	b = append(b, '|')
	for i, r := range s.recs[:s.nrecs] {
		b = append(b, r.state, bit(r.gen == p.gen), bit(r.reported && r.state != pmDurable))
		for _, q := range s.puts[:s.nputs] { // the PUTs in flight are a set
			if int(q.rec) == i {
				b = append(b, bit(uint64(q.gen) == p.gen))
			}
		}
	}
	b = append(b, '|')
	b = append(b, s.queue[:s.nqueue]...)
	return append(b, '|', byte(s.done), byte(s.done>>8), byte(s.hole), byte(s.target), byte(s.started),
		bit(s.parked), bit(s.ckptOwed), bit(s.stuck))
}

func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

type pmModel struct {
	t      *testing.T
	family uint16 // the once-only steps this run interleaves, 1<<kind
	seen   map[string]bool
	trail  []pmMove
	failed bool
	steps  int
}

func (m *pmModel) fail(format string, args ...any) {
	if m.failed {
		return
	}
	m.failed = true
	trail := make([]string, len(m.trail))
	for i, mv := range m.trail {
		trail[i] = mv.String()
	}
	m.t.Errorf("after %s: %s", strings.Join(trail, " "), fmt.Sprintf(format, args...))
}

// void marks lost the pending records a poison or a reset voided.
func (m *pmModel) void(s *pmState) {
	for i := range s.recs[:s.nrecs] {
		if r := &s.recs[i]; r.state == pmPending && r.gen != s.p.gen {
			r.state = pmLost
		}
	}
}

// owed reports whether a barrier or drain must answer an error now: a
// record was lost, or a checkpoint failed, and no answer reported it.
func (m *pmModel) owed(s *pmState) bool {
	if s.ckptOwed {
		return true
	}
	for _, r := range s.recs[:s.nrecs] {
		if r.state == pmLost && !r.reported {
			return true
		}
	}
	return false
}

// answered checks a barrier's or drain's answer err. nil is right only if
// nothing is owed, and then every record below target is in the store; an
// error is right only if something is owed (or recovery replaced the
// pipeline under the barrier), and it reports all of it, exactly once.
func (m *pmModel) answered(s *pmState, what string, target uint64, err error) {
	m.void(s)
	switch {
	case err == nil && m.owed(s):
		m.fail("%s answered nil over a lost record or a failed checkpoint", what)
	case err == nil:
		for i, r := range s.recs[:s.nrecs] {
			if r.seq < target && r.state != pmDurable && !r.reported {
				m.fail("%s answered nil, but record %d (seq %d) is not in the store", what, i, r.seq)
			}
		}
	case !m.owed(s) && !errors.Is(err, errReset):
		m.fail("%s answered %v, but nothing was lost since the last answer", what, err)
	}
	if err != nil {
		s.ckptOwed = false
		for i := range s.recs[:s.nrecs] {
			if s.recs[i].state == pmLost {
				s.recs[i].reported = true
			}
		}
	}
}

// effects does what a transition asked, as run does, and checks each ask.
func (m *pmModel) effects(s *pmState, fx *pipeFx[int, int]) {
	for _, i := range fx.ckpts {
		r := s.recs[i]
		switch {
		case r.state != pmDurable || r.gen != s.p.gen || r.seq >= s.p.durableTo:
			m.fail("checkpoint of record %d queued before the watermark passed it", i)
		case s.happened(mvDrop):
			m.fail("checkpoint of record %d queued after the drop", i)
		case s.nqueue == pmRoom:
			m.fail("checkpoint of record %d queued again", i)
			return
		}
		for _, j := range s.queue[:s.nqueue] {
			if s.recs[j].seq >= r.seq {
				m.fail("checkpoint of record %d queued behind a later one", i)
			}
		}
		s.queue[s.nqueue] = uint8(i)
		s.nqueue++
	}
	for _, i := range fx.doomed {
		s.recs[i].state = pmLost // lost now, though deleted once the lock is dropped
	}
	for _, w := range fx.wake {
		if !s.parked {
			m.fail("a barrier woken that was not parked")
		}
		s.parked = false
		m.answered(s, "the barrier", s.target, w.err)
	}
	if len(fx.puts) > 1 {
		m.fail("%d PUTs started at once", len(fx.puts))
	}
	for _, q := range fx.puts {
		if q.gen != s.p.gen {
			m.fail("PUT of record %d started in a dead generation", q.rec)
		}
		if s.nputs == pmRoom {
			m.fail("PUT of record %d started again", q.rec)
			return
		}
		s.puts[s.nputs] = pmPut{uint8(q.rec), uint8(q.gen)}
		s.nputs++
	}
}

// check holds after every step.
func (m *pmModel) check(s *pmState) {
	p := &s.p
	m.void(s)
	for i, r := range s.recs[:s.nrecs] {
		if r.gen == p.gen && r.seq < p.durableTo && r.state != pmDurable {
			m.fail("durableTo %d passed record %d (seq %d) of the live generation, which did not land", p.durableTo, i, r.seq)
		}
		if r.state == pmLost && !r.reported && p.err == nil {
			m.fail("record %d was lost, and no error waits for the next barrier", i)
		}
	}
	if s.nputs > 1 || p.busy != (s.nputs == 1) {
		m.fail("%d PUTs in flight, at most one; the pipe says busy %v", s.nputs, p.busy)
	}
	if !p.busy && len(p.queued) > 0 {
		m.fail("%d sealed record(s) queued behind no PUT", len(p.queued))
	}
	if p.durableTo > p.next {
		m.fail("durableTo %d beyond next %d", p.durableTo, p.next)
	}
}

// moves lists what may happen in s.
func (m *pmModel) moves(s *pmState, mv []pmMove) []pmMove {
	if s.nrecs < pmSeals {
		mv = append(mv, pmMove{kind: mvSeal})
	}
	for k, q := range s.puts[:s.nputs] {
		mv = append(mv, pmMove{mvLand, k, int(q.rec)}, pmMove{mvFail, k, int(q.rec)})
	}
	if s.nqueue > 0 {
		i := int(s.queue[0])
		mv = append(mv, pmMove{kind: mvCkpt, rec: i}, pmMove{kind: mvCkptFail, rec: i})
	}
	for kind := mvBarrier; kind <= mvDrop; kind++ {
		if m.family&(1<<kind) == 0 || s.happened(kind) || kind == mvHole && !s.happened(mvReserve) {
			continue
		}
		mv = append(mv, pmMove{kind: kind})
	}
	return mv
}

func (m *pmModel) apply(s *pmState, mv pmMove) {
	p := &s.p
	if mv.kind >= mvBarrier {
		s.done |= 1 << mv.kind
	}
	switch mv.kind {
	case mvSeal:
		seq := p.reserve()
		for i, r := range s.recs[:s.nrecs] {
			if r.seq == seq {
				m.fail("seq %d handed out again: record %d has it", seq, i)
			}
		}
		if s.happened(mvReserve) && s.hole == seq {
			m.fail("seq %d handed out again: the 2PC record has it", seq)
		}
		s.recs[s.nrecs] = pmRec{seq: seq, gen: p.gen}
		s.nrecs++
		m.effects(s, p.seal(seq, s.nrecs-1))
	case mvLand, mvFail:
		q := s.slot(s.puts[mv.arg])
		copy(s.puts[mv.arg:], s.puts[mv.arg+1:s.nputs])
		s.nputs--
		if mv.kind == mvLand {
			s.recs[q.rec].state = pmDurable
			m.effects(s, p.putLanded(q))
		} else {
			s.recs[q.rec].state = pmLost
			m.effects(s, p.putFailed(q, errMPut))
		}
	case mvCkpt, mvCkptFail:
		i := s.queue[0]
		copy(s.queue[:], s.queue[1:s.nqueue])
		s.nqueue--
		m.checkpoint(s, int(i), mv.kind == mvCkpt)
	case mvBarrier:
		if done, err := p.barrier(); done {
			m.answered(s, "the barrier", p.next, err)
			return
		}
		p.park(0)
		s.parked, s.target = true, p.next
	case mvReserve:
		s.hole = p.reserve()
	case mvHole:
		m.effects(s, p.hole(s.hole))
	case mvResolve:
		// A resolve waits in the checkpoint worker's queue, but the pipe
		// sees only when it runs, which may be at any point. Its failure
		// to apply is a checkpoint's.
		m.checkpoint(s, -1, true)
	case mvDrain:
		p.takeStale()
		err := p.drained(nil, nil)
		if s.stuck || s.happened(mvDrop) {
			if err == nil {
				m.fail("a drain answered nil over a stuck or dropped directory")
			}
			return // the refusal reports no lost record
		}
		m.answered(s, "a drain", p.durableTo, err)
	case mvReset:
		for i := range s.recs[:s.nrecs] {
			s.recs[i].reported = true // recovery answers for them now
		}
		s.ckptOwed, s.stuck = false, false
		// Recovery lists nothing when every record was checkpointed and
		// deleted: the lowest sequence it can report.
		m.effects(s, p.reset(0))
	case mvDrop:
		p.drop()
	}
}

// checkpoint runs record rec's checkpoint, or a resolve (rec < 0), which
// applies (ok) or fails if the pipe lets it start.
func (m *pmModel) checkpoint(s *pmState, rec int, ok bool) {
	p := &s.p
	errBefore := p.err
	err := p.ckptStart()
	switch {
	case err == nil && s.happened(mvDrop):
		m.fail("a checkpoint started after the drop")
	case err == nil && s.stuck:
		m.fail("a checkpoint started past a stuck one")
	case err == nil && rec >= 0:
		if seq := s.recs[rec].seq; seq < s.started {
			m.fail("checkpoint of seq %d started after seq %d's", seq, s.started-1)
		} else {
			s.started = seq + 1
		}
	}
	if err == nil {
		var applyErr error
		if !ok {
			applyErr = errMCkpt
			s.stuck, s.ckptOwed = true, true
		}
		err = p.ckptDone(applyErr)
		if ok && err != nil {
			m.fail("a checkpoint that applied answered %v", err)
		}
	}
	if rec < 0 && errBefore != nil && p.err != errBefore {
		m.fail("a resolve took the error kept for the next barrier")
	}
}

func (m *pmModel) explore(s *pmState) {
	var buf [16]pmMove
	var key [64]byte
	var c pmState
	for _, mv := range m.moves(s, buf[:0]) {
		if m.failed {
			return
		}
		s.cloneInto(&c)
		m.trail = append(m.trail, mv)
		m.apply(&c, mv)
		m.check(&c)
		m.steps++
		if k := c.key(key[:0]); !m.seen[string(k)] {
			m.seen[string(k)] = true
			m.explore(&c)
		}
		m.trail = m.trail[:len(m.trail)-1]
	}
}

// TestJournalPipelineExhaustive drives one directory's pipe through every
// order of: up to four seals, one PUT in flight at a time; each PUT landing
// or failing; each checkpoint applying or failing, in queue order; and, by
// families, one Barrier, one 2PC record's reserve and hole, one rename's
// resolve, one Flush's drain, one reset (recovery) and one drop. After every
// step:
// at most one PUT is in flight, and a queued record waits only behind one;
// no sequence is handed out twice, even after a reset to below next;
// durableTo passes no unlanded record of the live generation, and a record a
// poison lost leaves an error for the next barrier; a barrier or drain
// answers nil only when every record below its target is in the store, and
// an error only once per loss; a resolve never takes that error; checkpoints
// queue and start in sequence order, never past a stuck one, and none starts
// after the drop.
func TestJournalPipelineExhaustive(t *testing.T) {
	families := []struct {
		name  string
		kinds []uint8
	}{
		{"2pc", []uint8{mvBarrier, mvReserve, mvHole, mvResolve}},
		{"recovery", []uint8{mvReserve, mvHole, mvReset}},
		{"flush", []uint8{mvBarrier, mvResolve, mvDrain, mvDrop}},
		{"reset", []uint8{mvBarrier, mvReset, mvDrain, mvDrop}},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			t.Parallel()
			m := &pmModel{t: t, seen: map[string]bool{}}
			for _, k := range fam.kinds {
				m.family |= 1 << k
			}
			s := &pmState{}
			s.p.init(types.Ino{})
			m.seen[string(s.key(nil))] = true
			m.explore(s)
			t.Logf("%d states, %d steps", len(m.seen), m.steps)
		})
	}
}
