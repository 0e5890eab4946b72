// Package crashpoint provides named crash sites for deterministic failure
// injection. Code on the journal commit, checkpoint, 2PC, and recovery paths
// announces the sites it passes through; a chaos scenario arms a site on a
// specific client and the armed action fires the instant that client reaches
// it — under the sim clock, with no sleeps or signals involved.
//
// A Set also carries the client's "killed" switch. Killing a set models the
// process dying at the crash site: the GateStore mounted under the client
// fails every subsequent object-store operation, so no write issued after the
// kill can reach the store (exactly the state a real crash leaves behind).
package crashpoint

import (
	"fmt"
	"sync"

	"arkfs/internal/objstore"
	"arkfs/internal/types"
)

// Site names one crash location in the metadata pipeline.
type Site string

// The sites threaded through the journal, 2PC, and recovery paths.
const (
	// PreJournalPut: a commit worker is about to write the journal record.
	// Crashing here loses the running transaction (never acknowledged as
	// durable — Flush had not returned).
	PreJournalPut Site = "pre-journal-put"
	// PostJournalPut: the journal record is durable but not checkpointed.
	// Crashing here must be invisible after recovery: the next leader
	// replays the record.
	PostJournalPut Site = "post-journal-put"
	// MidCheckpoint: some inode objects of a transaction are checkpointed,
	// the dentry block is not. Recovery replays the whole record (idempotent).
	MidCheckpoint Site = "mid-checkpoint"
	// PostCheckpoint: the transaction is fully applied but its journal
	// record not yet invalidated. Recovery replays it a second time.
	PostCheckpoint Site = "post-checkpoint"

	// TwoPCPostPrepare: the coordinator wrote both prepare records but no
	// decision. Recovery resolves the rename by presumed abort.
	TwoPCPostPrepare Site = "2pc-post-prepare"
	// TwoPCPostDecision: the decision record is durable but the participant
	// was not told. Recovery (either side) finds the decision and commits.
	TwoPCPostDecision Site = "2pc-post-decision"

	// RecoveryPreReplay: a new leader was granted a crashed directory and is
	// about to replay its journal. Crashing here chains a second recovery.
	RecoveryPreReplay Site = "recovery-pre-replay"
	// RecoveryPostReplay: replay finished but the RecoveryDone handshake did
	// not reach the lease manager.
	RecoveryPostReplay Site = "recovery-post-replay"
)

// Set is one client's crash-site registry and kill switch. The zero value of
// a *Set (nil) is inert: Hit and Killed on a nil Set are no-ops, so the
// production path can announce sites unconditionally.
type Set struct {
	mu     sync.Mutex
	killed bool
	armed  map[Site]func()
	fired  []Site
	onFire func(Site)
}

// NewSet returns an empty, live (not killed) set.
func NewSet() *Set { return &Set{armed: make(map[Site]func())} }

// Arm registers action to run the next time site is hit. One action per
// site; arming a site twice replaces the previous action. The action runs on
// the goroutine that hits the site, outside the set's lock, so it may call
// Kill, Client.Crash, or signal a channel.
func (s *Set) Arm(site Site, action func()) {
	s.mu.Lock()
	s.armed[site] = action
	s.mu.Unlock()
}

// Disarm removes a pending action for site (e.g. at scenario drain time).
func (s *Set) Disarm(site Site) {
	s.mu.Lock()
	delete(s.armed, site)
	s.mu.Unlock()
}

// Hit announces that the calling client reached site. If an action is armed
// for it (and the set is not already killed), the action fires exactly once.
func (s *Set) Hit(site Site) {
	if s == nil {
		return
	}
	s.mu.Lock()
	action, ok := s.armed[site]
	if !ok || s.killed {
		s.mu.Unlock()
		return
	}
	delete(s.armed, site)
	s.fired = append(s.fired, site)
	onFire := s.onFire
	s.mu.Unlock()
	if onFire != nil {
		onFire(site)
	}
	action()
}

// Kill flips the set into the dead state: every store operation through the
// GateStore fails from now on.
func (s *Set) Kill() {
	s.mu.Lock()
	s.killed = true
	s.mu.Unlock()
}

// Killed reports whether Kill was called.
func (s *Set) Killed() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// Fired returns the sites whose armed actions have run, in firing order.
func (s *Set) Fired() []Site {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Site, len(s.fired))
	copy(out, s.fired)
	return out
}

// OnFire installs an observer called (before the armed action) whenever a
// site fires; chaos drivers use it to build the event log.
func (s *Set) OnFire(fn func(Site)) {
	s.mu.Lock()
	s.onFire = fn
	s.mu.Unlock()
}

// GateStore wraps a Store and fails every operation once its Set is killed,
// modelling the fact that a crashed process issues no further I/O. Where it
// sits among the store wrappers, and why, is DESIGN.md §7.3.
type GateStore struct {
	objstore.Verbs
	set   *Set
	inner objstore.Store
}

// NewGateStore mounts the kill gate over inner.
func NewGateStore(set *Set, inner objstore.Store) *GateStore {
	g := &GateStore{set: set, inner: inner}
	g.Verbs = g.do
	return g
}

func (g *GateStore) do(op objstore.Op) (objstore.Result, error) {
	if g.set.Killed() {
		return objstore.Result{}, fmt.Errorf("crashpoint: client killed, %s %q dropped: %w", op.Verb, op.Key, types.ErrIO)
	}
	return objstore.Do(g.inner, op)
}
