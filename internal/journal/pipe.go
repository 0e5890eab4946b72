package journal

import (
	"fmt"

	"arkfs/internal/types"
)

// pipe is one directory's commit pipeline as a rule: which sealed records are
// on their way to the store, which are durable, what a barrier answers and
// whether a checkpoint may start. It does no I/O and reads no clock. Its
// caller holds the directory's lock across each call, then does what the call
// left in fx: checkpoints, then barrier answers, then PUTs; deletes once the
// lock is dropped. DESIGN.md §12 gives the durability order it keeps.
//
// R is the caller's sealed record, W a parked barrier's handle.
type pipe[R, W any] struct {
	dir       types.Ino // for the messages only
	depth     int       // PUTs of this directory in flight at once
	next      uint64    // the sequence reserve hands out next
	gen       uint64    // bumped by poison and reset: a PUT of an older one is void
	queued    []slot[R] // sealed, waiting for a window slot
	inflight  int
	landed    map[uint64]slot[R] // durable records and holes above the watermark
	durableTo uint64             // every sequence below is durable, a hole, or poisoned past
	barriers  []parked[W]

	// err is the first error since a barrier or drain last took one: a lost
	// record or a failed checkpoint.
	err error
	// stuck is a failed checkpoint's error. No barrier takes it: the record
	// stays in the journal, so every drain fails (the next leader replays),
	// and no later checkpoint starts, since applying around the gap could
	// reorder same-name mutations. Only reset clears it.
	stuck error
	// stale holds keys of records that applied but whose delete failed:
	// replay is idempotent, but a clean release promises an empty journal.
	stale []string
	// dropped: the client gave the directory up. No checkpoint starts any
	// more; its successor's recovery replays what is durable.
	dropped bool

	fx pipeFx[R, W]
}

// slot is one sequence: a sealed record, or a hole (a 2PC record written
// outside the pipeline) the watermark passes without a checkpoint.
type slot[R any] struct {
	seq, gen uint64
	rec      R
	hole     bool
}

type parked[W any] struct {
	target uint64 // answered once durableTo reaches it
	w      W
}

type woken[W any] struct {
	w   W
	err error // the barrier's answer
}

// pipeFx is what a transition asks of its caller. The next transition reuses
// its slices, except doomed.
type pipeFx[R, W any] struct {
	ckpts  []R        // checkpoints to queue, in sequence order
	wake   []woken[W] // barriers to answer
	puts   []slot[R]  // PUTs to start; each answers putLanded or putFailed
	doomed []R        // landed records to delete: they must not replay
}

var errReset = fmt.Errorf("journal: recovery replaced the pipeline under a barrier: %w", types.ErrIO)

func (p *pipe[R, W]) init(dir types.Ino, depth int) {
	p.dir, p.depth, p.landed = dir, depth, make(map[uint64]slot[R])
}

// begin empties fx for the next transition. Its caller calls it too once it
// did what fx asked, so that fx holds no record past its checkpoint.
func (p *pipe[R, W]) begin() {
	fx := &p.fx
	clear(fx.ckpts)
	clear(fx.wake)
	clear(fx.puts)
	fx.ckpts, fx.wake, fx.puts, fx.doomed = fx.ckpts[:0], fx.wake[:0], fx.puts[:0], nil
}

// reserve hands out the next sequence: to a record about to be sealed, or to
// a 2PC record its caller writes and then reports as a hole.
func (p *pipe[R, W]) reserve() uint64 {
	p.next++
	return p.next - 1
}

// seal puts rec, of sequence seq, into the pipeline: its PUT starts, or it
// queues while depth PUTs are in flight.
func (p *pipe[R, W]) seal(seq uint64, rec R) *pipeFx[R, W] {
	p.begin()
	p.start(slot[R]{seq: seq, gen: p.gen, rec: rec})
	return &p.fx
}

func (p *pipe[R, W]) start(s slot[R]) {
	if p.inflight >= p.depth {
		p.queued = append(p.queued, s)
		return
	}
	p.inflight++
	p.fx.puts = append(p.fx.puts, s)
}

// putLanded: s's PUT succeeded. A record of a poisoned generation is deleted,
// so that the journal stays a replayable prefix.
func (p *pipe[R, W]) putLanded(s slot[R]) *pipeFx[R, W] {
	p.begin()
	p.inflight--
	if s.gen != p.gen {
		p.fx.doomed = append(p.fx.doomed, s.rec)
		return &p.fx
	}
	p.landed[s.seq] = s
	p.advance()
	for len(p.queued) > 0 && p.inflight < p.depth {
		next := p.queued[0]
		p.queued = p.queued[1:]
		p.start(next)
	}
	return &p.fx
}

// putFailed: s's PUT failed for good. A live record poisons its generation:
// every record not yet durable is lost with it. The ones that landed above
// the gap are deleted (replayed without their predecessor they could apply
// ops whose prerequisites were lost), the queue is dropped, the PUTs in
// flight are void, and the watermark jumps past them all. Every parked
// barrier covers a lost record, so each answers err; with none parked, the
// next barrier does.
func (p *pipe[R, W]) putFailed(s slot[R], err error) *pipeFx[R, W] {
	p.begin()
	p.inflight--
	if s.gen != p.gen {
		return &p.fx
	}
	p.keep(err)
	p.gen++
	for seq := p.durableTo; seq < p.next; seq++ {
		if l, ok := p.landed[seq]; ok && !l.hole {
			p.fx.doomed = append(p.fx.doomed, l.rec)
		}
	}
	clear(p.landed)
	p.queued = nil
	p.durableTo = p.next
	p.wake(true)
	return &p.fx
}

// hole: sequence seq, from reserve, was written (or not) outside the
// pipeline. A failed 2PC record is its writer's error, and waiting for it
// would wedge every later barrier.
func (p *pipe[R, W]) hole(seq uint64) *pipeFx[R, W] {
	p.begin()
	if seq >= p.durableTo {
		p.landed[seq] = slot[R]{seq: seq, gen: p.gen, hole: true}
		p.advance()
	}
	return &p.fx
}

// advance walks the watermark over contiguously landed records, queueing
// their checkpoints in sequence order.
func (p *pipe[R, W]) advance() {
	for s, ok := p.landed[p.durableTo]; ok; s, ok = p.landed[p.durableTo] {
		delete(p.landed, p.durableTo)
		p.durableTo++
		if !s.hole && !p.dropped {
			p.fx.ckpts = append(p.fx.ckpts, s.rec)
		}
	}
	p.wake(false)
}

// wake answers every barrier the watermark reached: after a poison each with
// the error, otherwise the first takes it.
func (p *pipe[R, W]) wake(lost bool) {
	kept := p.barriers[:0]
	for _, b := range p.barriers {
		switch {
		case p.durableTo < b.target:
			kept = append(kept, b)
		case lost:
			p.fx.wake = append(p.fx.wake, woken[W]{b.w, p.err})
		default:
			p.fx.wake = append(p.fx.wake, woken[W]{b.w, p.take()})
		}
	}
	if len(kept) < len(p.barriers) {
		p.err = nil
	}
	clear(p.barriers[len(kept):])
	p.barriers = kept
}

func (p *pipe[R, W]) keep(err error) {
	if p.err == nil {
		p.err = err
	}
}

func (p *pipe[R, W]) take() error {
	err := p.err
	p.err = nil
	return err
}

// barrier is a Barrier after its seal: done, with the answer, if every
// sealed record is durable; otherwise the caller parks.
func (p *pipe[R, W]) barrier() (done bool, err error) {
	if p.durableTo >= p.next {
		return true, p.take()
	}
	return false, nil
}

// park parks w until every record sealed so far is durable, under the lock
// barrier answered not done under.
func (p *pipe[R, W]) park(w W) {
	p.barriers = append(p.barriers, parked[W]{p.next, w})
}

// shut answers every parked barrier err: the journal closes.
func (p *pipe[R, W]) shut(err error) *pipeFx[R, W] {
	p.begin()
	for _, b := range p.barriers {
		p.fx.wake = append(p.fx.wake, woken[W]{b.w, err})
	}
	clear(p.barriers)
	p.barriers = p.barriers[:0]
	return &p.fx
}

// reset primes the pipeline after recovery replayed the journal below seq.
// The previous leadership's state is obsolete, and a barrier parked on it
// cannot know what recovery found. The sequence never moves back: a PUT of
// the voided generation may still be in flight, and a new record reusing its
// key would be deleted when that PUT lands and is doomed. Recovery does not
// need contiguous sequences.
func (p *pipe[R, W]) reset(seq uint64) *pipeFx[R, W] {
	fx := p.shut(errReset)
	seq = max(seq, p.next)
	p.next, p.durableTo, p.gen = seq, seq, p.gen+1
	p.err, p.stuck, p.stale, p.queued = nil, nil, nil, nil
	clear(p.landed)
	return fx
}

// drop: the client gave the directory up.
func (p *pipe[R, W]) drop() { p.dropped = true }

// ckptStart says whether the next queued checkpoint or resolve may apply:
// nil, or why not, which is also a resolve's answer.
func (p *pipe[R, W]) ckptStart() error {
	switch {
	case p.dropped:
		return fmt.Errorf("journal: %s dropped before its checkpoint: %w", p.dir.Short(), types.ErrStale)
	case p.stuck != nil:
		return p.unapplied()
	}
	return nil
}

// ckptDone records how a started checkpoint or resolve went and returns the
// resolve's answer: its own failure, never err, which is the next barrier's.
func (p *pipe[R, W]) ckptDone(err error) error {
	if err == nil {
		return nil
	}
	if p.stuck == nil {
		p.stuck = err
	}
	p.keep(err)
	return p.unapplied()
}

func (p *pipe[R, W]) unapplied() error {
	return fmt.Errorf("journal: unapplied record for %s awaits replay: %w", p.dir.Short(), p.stuck)
}

func (p *pipe[R, W]) invalidateFailed(key string) { p.stale = append(p.stale, key) }

// takeStale begins a Flush's drain: the caller deletes these keys again.
func (p *pipe[R, W]) takeStale() []string {
	stale := p.stale
	p.stale = nil
	return stale
}

// drained ends a Flush's drain, given the keys whose delete failed again and
// the first such error. A stuck or dropped directory's journal is not empty,
// so its drain fails, and takes no error.
func (p *pipe[R, W]) drained(kept []string, staleErr error) error {
	p.stale = append(p.stale, kept...)
	if err := p.ckptStart(); err != nil {
		return err
	}
	if staleErr != nil {
		return staleErr
	}
	return p.take()
}
