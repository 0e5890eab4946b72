package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// leaseOp is one transition of a leaseTable, on one file.
type leaseOp struct {
	kind   string // grant, made, release, takeWriter or drop
	client rpc.Addr
	write  bool
	grant  uint64 // release: the number the return names
}

func (o leaseOp) String() string {
	switch o.kind {
	case "grant", "made":
		return fmt.Sprintf("%s(%s, write=%v)", o.kind, o.client, o.write)
	case "release":
		return fmt.Sprintf("release(%s, %d)", o.client, o.grant)
	}
	return o.kind
}

// TestLeaseTableExhaustive runs every sequence of at most four transitions by
// two holders, the leader itself (whose grants carry no number) and one remote
// client, and checks the rule after each step: a writer is the only holder and
// the file is not direct; no entry is left with no holders; a return that
// names a grant older than its client's latest listing leaves the client
// listed, and one that names the latest does not; and every conflicting grant
// recalls every other holder, whose cache may be stale, while no other grant
// recalls anyone; a taken writer is recalled and leaves the file direct. A
// create's row is a new inode's first transition.
func TestLeaseTableExhaustive(t *testing.T) {
	const leader, remote = rpc.Addr("leader"), rpc.Addr("remote")
	var ops []leaseOp
	for _, c := range []rpc.Addr{leader, remote} {
		for _, w := range []bool{false, true} {
			ops = append(ops, leaseOp{kind: "grant", client: c, write: w}, leaseOp{kind: "made", client: c, write: w})
		}
	}
	ops = append(ops, leaseOp{kind: "release", client: leader})
	for g := uint64(0); g <= 3; g++ {
		ops = append(ops, leaseOp{kind: "release", client: remote, grant: g})
	}
	ops = append(ops, leaseOp{kind: "takeWriter"}, leaseOp{kind: "drop"})

	runs := 0
	var run []leaseOp
	var explore func()
	explore = func() {
		for _, op := range ops {
			if t.Failed() || op.kind == "made" && len(run) > 0 {
				continue
			}
			run = append(run, op)
			runs++
			checkLeaseRun(t, run, remote)
			if len(run) < 4 {
				explore()
			}
			run = run[:len(run)-1]
		}
	}
	explore()
	t.Logf("%d sequences", runs)
}

// checkLeaseRun replays run on an empty table and checks it after each step;
// remote is the client whose open grants are numbered.
func checkLeaseRun(t *testing.T, run []leaseOp, remote rpc.Addr) {
	t.Helper()
	ino := types.Ino{1}
	tab := make(leaseTable)
	var seq uint64                  // the last number given
	latest := map[rpc.Addr]uint64{} // each listed client's latest number
	for i, op := range run {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("%v: "+format, append([]any{run[:i+1]}, args...)...)
		}
		before := tab[ino]
		before.holders = maps.Clone(before.holders)
		var recall []rpc.Addr
		switch op.kind {
		case "grant":
			var n uint64
			if op.client == remote && !op.write {
				seq++
				n = seq
				latest[remote] = n
			}
			_, recall = tab.grant(ino, op.client, op.write, n)
		case "made":
			tab.made(ino, op.client, op.write)
		case "release":
			tab.release(ino, op.client, op.grant)
		case "takeWriter":
			recall = tab.takeWriter(ino)
		case "drop":
			tab.drop(ino)
		}
		fl, ok := tab[ino]
		if ok && len(fl.holders) == 0 {
			fail("an entry with no holders")
		}
		if fl.writer != "" && (len(fl.holders) != 1 || !tab.holds(ino, fl.writer) || fl.direct) {
			fail("writer %s beside holders %v, direct %v", fl.writer, fl.holders, fl.direct)
		}
		if _, was := before.holders[op.client]; op.kind == "release" && was {
			if stale := op.grant < latest[op.client]; tab.holds(ino, op.client) != stale {
				fail("a return naming %d, latest %d: client listed %v", op.grant, latest[op.client], !stale)
			}
		}
		if op.kind == "takeWriter" && before.writer != "" && (!fl.direct || !slices.Equal(recall, []rpc.Addr{before.writer})) {
			fail("a taken writer recalled %v and left direct %v", recall, fl.direct)
		}
		if op.kind == "grant" {
			var others []rpc.Addr
			for h := range before.holders {
				if h != op.client {
					others = append(others, h)
				}
			}
			conflict := !before.direct && (op.write && len(others) > 0 || before.writer != "" && before.writer != op.client)
			switch {
			case conflict && !fl.direct:
				fail("a conflict left the file cached")
			case !conflict && len(recall) > 0:
				fail("recalled %v with no conflict", recall)
			}
			for _, h := range others {
				if conflict && !slices.Contains(recall, h) {
					fail("the conflict did not recall %s (recalled %v)", h, recall)
				}
			}
		}
		for c := range latest {
			if !tab.holds(ino, c) {
				delete(latest, c)
			}
		}
	}
}

// The two-sided model: one file in a directory that client mL leads, so its
// own grants carry no number, send no message and recall it in line, and that
// client mR holds from afar. Each side runs its half of the rule, leaseTable
// at the leader and a leaseHolder per client, and the messages between them
// are a multiset the model delivers in every order.
const mL, mR = rpc.Addr("leader"), rpc.Addr("remote")

var mIno = types.Ino{1}

// mMsg is one message in flight. A grant's answer waits for the recalls the
// grant sent (a holder answers its FlushCacheReq before the leader answers the
// requester): it is then the recall's payload.
type mMsg struct {
	kind   string // walk, attachReq, attach, open, upgrade, flush, close, closed, writeback
	to     int    // the client it is for; attachReq and close are for the leader
	seq    uint64 // a grant's number, or the number a return names
	direct bool
	since  uint64 // walk: the count the walk read before it left
	gen    int    // writeback: the record whose last close started it
	then   *mMsg  // flush: the answer that waits for it
}

func (m *mMsg) String() string {
	if m == nil {
		return ""
	}
	return fmt.Sprintf("%s>%d(%d,%v,%d,%d)[%v]", m.kind, m.to, m.seq, m.direct, m.since, m.gen, m.then)
}

// mClient is one client: its leaseHolder, its record of the file (nil if
// none) and what the model knows of it beyond the rule.
type mClient struct {
	h         leaseHolder
	e         *heldLease
	gen       int    // records made
	handles   int    // opens answered and not closed
	upgrading bool   // a write upgrade waits for its answer
	wrote     bool   // the record has the upgrade's answer: its handles write
	dirty     bool   // cached writes the store lacks
	given     uint64 // the highest number a return named (the model's own ledger)
	opens     int    // what the client may still start
	upgrades  int
	writes    int
}

type mState struct {
	tab   leaseTable
	seq   uint64 // the leader's last grant number
	takes int    // takeWriter calls the leader may still make
	busy  int    // recalls in flight: their sender holds the directory's opMu
	c     [2]mClient
	msgs  []*mMsg
}

func (s *mState) clone() *mState {
	n := *s
	n.tab = make(leaseTable, len(s.tab))
	for ino, fl := range s.tab {
		fl.holders = maps.Clone(fl.holders)
		n.tab[ino] = fl
	}
	for i := range n.c {
		n.c[i].h.returned = maps.Clone(s.c[i].h.returned)
		if s.c[i].e != nil {
			e := *s.c[i].e
			n.c[i].e = &e
		}
	}
	n.msgs = slices.Clone(s.msgs)
	return &n
}

func (s *mState) key() string {
	var b strings.Builder
	fl := s.tab[mIno]
	fmt.Fprintf(&b, "%v %s %v %d %d %d|", fl.holders, fl.writer, fl.direct, s.seq, s.takes, s.busy)
	for _, c := range s.c {
		e := "-"
		if c.e != nil {
			e = fmt.Sprint(*c.e)
		}
		fmt.Fprintf(&b, "%d %d %v %s %d %d %v %v %v %d %d %d %d|", c.h.recalls, c.h.returns, c.h.returned, e,
			c.gen, c.handles, c.upgrading, c.wrote, c.dirty, c.given, c.opens, c.upgrades, c.writes)
	}
	msgs := make([]string, len(s.msgs))
	for i, m := range s.msgs {
		msgs[i] = m.String()
	}
	slices.Sort(msgs)
	b.WriteString(strings.Join(msgs, " "))
	return b.String()
}

// mModel is the explorer: the steps a state may take and the invariants.
type mModel struct {
	t      *testing.T
	addr   [2]rpc.Addr
	seen   map[string]float64 // sequences from each state explored
	path   []string
	states int
	failed bool
}

func (m *mModel) fail(format string, args ...any) {
	if !m.failed {
		m.failed = true
		m.t.Errorf("after %v: "+format, append([]any{m.path}, args...)...)
	}
}

// explore returns the number of sequences of steps that start in s.
func (m *mModel) explore(s *mState) float64 {
	k := s.key()
	if n, ok := m.seen[k]; ok {
		return n
	}
	m.states++
	var n float64
	for _, step := range m.steps(s) {
		if m.failed {
			break
		}
		next := s.clone()
		m.path = append(m.path, step.label)
		step.run(next)
		m.check(next)
		n += 1 + m.explore(next)
		m.path = m.path[:len(m.path)-1]
	}
	m.seen[k] = n
	return n
}

type mStep struct {
	label string
	run   func(*mState)
}

// steps lists what may happen next in s: a client starts an operation, or a
// message in flight is delivered. A step that takes the directory's opMu
// (the leader's table) waits while a recall is in flight.
func (m *mModel) steps(s *mState) []mStep {
	var steps []mStep
	add := func(table bool, label string, run func(*mState)) {
		if !table || s.busy == 0 {
			steps = append(steps, mStep{label, run})
		}
	}
	for i := range s.c {
		c := &s.c[i]
		if c.opens > 0 {
			add(true, fmt.Sprintf("open%d", i), func(s *mState) { m.open(s, i) })
		}
		if c.handles > 0 {
			if direct, write := c.e.mode(); !direct && !write && !c.upgrading && c.upgrades > 0 {
				add(true, fmt.Sprintf("upgrade%d", i), func(s *mState) { m.upgrade(s, i) })
			}
			if c.wrote && c.writes > 0 {
				add(false, fmt.Sprintf("write%d", i), func(s *mState) {
					c := &s.c[i]
					c.writes--
					if direct, _ := c.e.mode(); !direct {
						c.dirty = true
					}
				})
			}
			if !c.upgrading { // the write that asked holds its handle
				add(i == 0, fmt.Sprintf("close%d", i), func(s *mState) { m.close(s, i) })
			}
		}
	}
	if s.takes > 0 {
		add(true, "takeWriter", func(s *mState) {
			s.takes--
			m.recall(s, s.tab.takeWriter(mIno), nil)
		})
	}
	done := map[string]bool{}
	for j, msg := range s.msgs {
		label := msg.String()
		if done[label] || msg.kind == "walk" && s.c[1].e != nil && s.c[1].e.returning {
			continue // the Open waits for the return to be answered (ref)
		}
		done[label] = true
		table := msg.kind == "attachReq" || msg.kind == "close" || msg.kind == "writeback" && msg.to == 0
		add(table, label, func(s *mState) {
			s.msgs = slices.Delete(s.msgs, j, j+1)
			m.deliver(s, msg)
		})
	}
	return steps
}

// recall runs a grant's or takeWriter's recall list: the leader recalls
// itself in line, the remote client gets a FlushCacheReq carrying answer, and
// an answer that waits for nothing is delivered now when it is the leader's
// own, or sent.
func (m *mModel) recall(s *mState, recall []rpc.Addr, answer *mMsg) {
	var remote bool
	for _, h := range recall {
		if h == mL {
			c := &s.c[0]
			c.h.recall(c.e)
			c.dirty = false
			continue
		}
		remote = true
		s.busy++
		s.msgs = append(s.msgs, &mMsg{kind: "flush", to: 1, then: answer})
	}
	switch {
	case remote || answer == nil:
	case answer.to == 0:
		m.deliver(s, answer)
	default:
		s.msgs = append(s.msgs, answer)
	}
}

func (m *mModel) open(s *mState, i int) {
	c := &s.c[i]
	c.opens--
	if i == 0 { // the record first, then the grant (attach)
		c.ref()
		direct, recall := s.tab.grant(mIno, mL, false, 0)
		m.recall(s, recall, &mMsg{kind: "open", to: 0, direct: direct})
		return
	}
	s.seq++ // the walk carries the open; the record comes with its answer
	direct, recall := s.tab.grant(mIno, mR, false, s.seq)
	m.recall(s, recall, &mMsg{kind: "walk", to: 1, seq: s.seq, direct: direct, since: c.h.mark()})
}

// ref takes a reference on the client's record, making one if it has none.
func (c *mClient) ref() {
	if c.e == nil {
		c.e = &heldLease{}
		c.gen++
	}
	c.h.open(c.e)
}

func (m *mModel) upgrade(s *mState, i int) {
	c := &s.c[i]
	c.upgrades--
	c.upgrading = true
	direct, recall := s.tab.grant(mIno, m.addr[i], true, 0)
	m.recall(s, recall, &mMsg{kind: "upgrade", to: i, direct: direct})
}

func (m *mModel) close(s *mState, i int) {
	c := &s.c[i]
	c.handles--
	if !c.h.close(c.e) {
		return
	}
	if c.dirty {
		s.msgs = append(s.msgs, &mMsg{kind: "writeback", to: i, gen: c.gen})
		return
	}
	m.release(s, i)
}

func (m *mModel) release(s *mState, i int) {
	c := &s.c[i]
	back, ok := c.h.release(c.e, c.dirty, i == 0)
	switch {
	case !ok:
	case back.to != "":
		c.given = max(c.given, back.grant)
		s.msgs = append(s.msgs, &mMsg{kind: "close", seq: back.grant})
	default:
		if back.self {
			s.tab.release(mIno, mL, back.grant)
		}
		c.e, c.wrote = nil, false
	}
}

// adopted checks that a grant the remote client believes was not given back.
func (m *mModel) adopted(c *mClient, seq uint64) {
	c.handles++
	if seq <= c.given {
		m.fail("grant %d believed after a return named %d", seq, c.given)
	}
}

func (m *mModel) deliver(s *mState, msg *mMsg) {
	c := &s.c[msg.to]
	g := dataGrant{seq: msg.seq, direct: msg.direct}
	switch msg.kind {
	case "walk":
		c.ref()
		if c.h.adopt(c.e, mL, g, &msg.since) {
			m.adopted(c, msg.seq)
			return
		}
		s.msgs = append(s.msgs, &mMsg{kind: "attachReq"}) // not believed: attach asks again
	case "attachReq":
		s.seq++
		direct, recall := s.tab.grant(mIno, mR, false, s.seq)
		m.recall(s, recall, &mMsg{kind: "attach", to: 1, seq: s.seq, direct: direct})
	case "attach":
		c.h.adopt(c.e, mL, g, nil)
		m.adopted(c, msg.seq)
	case "open":
		c.h.adopt(c.e, "", g, nil)
		c.handles++
	case "upgrade":
		if c.upgrading, c.wrote = false, true; msg.direct {
			c.h.recall(c.e)
			c.dirty = false
		} else {
			c.h.adopt(c.e, [2]rpc.Addr{"", mL}[msg.to], dataGrant{write: true}, nil)
		}
	case "flush":
		s.busy--
		c.h.recall(c.e)
		c.dirty = false
		if msg.then != nil {
			s.msgs = append(s.msgs, msg.then)
		}
	case "close":
		s.tab.release(mIno, mR, msg.seq)
		s.msgs = append(s.msgs, &mMsg{kind: "closed", to: 1})
	case "closed":
		c.h.answered()
		c.e, c.wrote = nil, false
	case "writeback": // the flush is the inode's; the release is of that record, or stands down
		if c.dirty = false; msg.gen == c.gen && c.e != nil {
			m.release(s, msg.to)
		}
	}
}

// check states the rule's three invariants: no client caches a file another
// client writes, and one that caches its writes has the file to itself; no
// client with a live handle is missing from the leader's holder set; and (in
// adopted) a grant given back is never believed again.
func (m *mModel) check(s *mState) {
	for i, x := range s.c {
		if x.handles > 0 && !s.tab.holds(mIno, m.addr[i]) {
			m.fail("client %d has %d handles and is not listed", i, x.handles)
		}
		caches := x.e != nil && !x.e.returning && !x.e.direct && (x.handles > 0 || x.dirty)
		y := s.c[1-i]
		if caches && y.wrote && (y.handles > 0 || y.dirty) {
			m.fail("client %d caches what client %d writes", i, 1-i)
		}
		if caches && x.wrote && y.handles > 0 {
			m.fail("client %d caches its writes beside client %d's handle", i, 1-i)
		}
	}
}

// TestDataLeaseTwoSided composes the leader's leaseTable with two clients'
// leaseHolders and delivers the messages between them in every order: each
// client opens twice and upgrades and writes once, the leader takes its
// writer (a truncate or a move) once, each closes what it opened, and a close
// with cached writes returns its lease after the write-back. The invariants
// are checked after every step.
func TestDataLeaseTwoSided(t *testing.T) {
	m := &mModel{t: t, addr: [2]rpc.Addr{mL, mR}, seen: map[string]float64{}}
	s := &mState{tab: make(leaseTable), takes: 1}
	s.c[0] = mClient{opens: 2, upgrades: 1, writes: 1}
	s.c[1] = mClient{opens: 2, upgrades: 1, writes: 1}
	n := m.explore(s)
	t.Logf("%.0f sequences over %d states", n, m.states)
}
