// Package metatable implements ArkFS's per-directory metadata table (paper
// §III-C): the in-memory structure a directory leader serves from. It holds
// the directory's own inode, its dentries, and the inodes of its child files,
// so that every metadata operation — lookup, permission check, create,
// unlink, stat, readdir — is a local memory operation with no remote
// communication once the child it names is in memory.
//
// The paper loads the whole table before the leader serves anything. Here a
// leader serves as soon as it holds the directory inode and the dentry block
// (DESIGN.md §5.9): each child inode is fetched on first touch, or by one
// background loader in dentry order, whichever reaches it first, and is
// fetched once. Load and LoadDegraded, which tools and tests call, still
// return only when every child is in memory.
package metatable

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Table is one directory's metadata table. The owning client is the
// directory leader; all mutations happen under the table lock and are
// mirrored into the per-directory journal by the caller.
//
// An inode the table stores is never written again: every writer (NewEmpty,
// Insert, UpdateChild, SetDirInode) stores a copy of its own and replaces the
// stored pointer. So Dir, Peek and Child hand out the stored inode itself, and
// a path walk reads the directories it crosses without copying them. Their
// callers must not write to what they get; DirInode and Lookup return copies
// for callers that build the next version from the current one.
//
// A child named by a dentry is in one of four states, all kept in children:
// pending (a nil inode), in flight (the inFlight marker: one goroutine's GET
// is out for it), loaded, or dropped (no key, and no dentry: it failed
// verification or was missing, and lost counts it). Every method that reads
// or replaces a child loads it first (need); the name-only methods (Exists,
// Insert, List, Len, Dir, Epoch) never wait.
type Table struct {
	mu       sync.RWMutex
	dir      *types.Inode
	entries  map[string]wire.Dentry
	children map[types.Ino]*types.Inode
	// epoch counts acknowledged mutations. The async commit path uses it as
	// the dependency stamp between the table and the journal: a durability
	// barrier that completed at epoch E covers every mutation up to E, so a
	// later fsync with an unchanged epoch has nothing new to make durable.
	epoch uint64

	// What loading the children takes; unused by a table made by NewEmpty.
	env     sim.Env
	tr      *prt.Translator
	strict  bool         // a child that fails verification or is missing fails the load (Load)
	stopped bool         // Stop was called: no GET starts any more
	lost    atomic.Int32 // entries dropped: the directory is served read-only
	dropped func(lost int)
	// waiters holds, per child in flight that someone waits for, the channel
	// the GET's owner closes when it ends. Made on first wait.
	waiters map[types.Ino]*sim.Chan[struct{}]
	// loading is closed when the background loader ends; nil without one.
	loading *sim.Chan[struct{}]
}

// inFlight marks a child whose GET is out; it is never handed out.
var inFlight = new(types.Inode)

// loaded reports whether n, a value of children, is an inode in memory.
func loaded(n *types.Inode) bool { return n != nil && n != inFlight }

// inlineGet is the directory inode's GET time below which LoadWith loads the
// children before it returns. A store that fast is in memory: there a child's
// GET costs less than handing it to the loader goroutine, and the leader's
// touches and the loader would contend for the table over GETs that take no
// time (DESIGN.md §5.9).
const inlineGet = 10 * time.Microsecond

// errStopped is what a touch of a child not yet loaded gets once the table
// has been stopped: the directory is no longer led from this table.
var errStopped = fmt.Errorf("metatable: table dropped: %w", types.ErrStale)

// Load builds the metatable for dir from the object store: the directory
// inode, the dentry block, and every child inode, one object after another.
// It returns once every child is in memory; a child that fails verification
// or is missing fails it. A leader taking a directory over uses LoadWith.
func Load(tr *prt.Translator, dir types.Ino) (*Table, error) {
	t, _, err := LoadWith(nil, 1, tr, dir, false, nil)
	return t, err
}

// LoadDegraded builds as much of the metatable as survives verification:
// a corrupt dentry block yields an empty entry table, and a corrupt or
// missing child inode drops that entry. The result is the last valid state
// the store can prove — the caller serves it read-only and reports how many
// entries were lost. Only integrity failures are tolerated; infrastructure
// errors (including an unreadable directory inode) still fail the load.
func LoadDegraded(tr *prt.Translator, dir types.Ino) (*Table, int, error) {
	return LoadWith(nil, 1, tr, dir, true, nil)
}

// LoadWith is the loader behind Load and LoadDegraded and a leader's
// takeover. It reads the directory inode and the dentry block; degraded
// selects the rule for a dentry block that fails verification: fail the
// load, or serve no entries and count the block in lost.
//
// The child inodes are then loaded by one loader that walks the dentries in
// order, at most limit GETs at a time (sim.FanOut), skipping any child a
// toucher has claimed. With env nil the loader runs inline before LoadWith
// returns (limit is then 1): the eager serial load, whose error is the one
// of the first bad child in dentry order, and whose lost count is final.
// With an env the loader runs on a goroutine of env and LoadWith returns at
// once with the lost count so far, unless the store answered the directory
// inode's GET within inlineGet: then the loader runs inline, one GET after
// another, as without an env. Either way a child that fails verification or
// is missing is dropped whoever finds it, and dropped (which may be nil) is
// called after each such drop with the entries lost so far. A child whose
// GET fails otherwise goes back to pending: the touch that needed it gets
// the error, and the next touch retries.
func LoadWith(env sim.Env, limit int, tr *prt.Translator, dir types.Ino, degraded bool, dropped func(lost int)) (*Table, int, error) {
	inline := env == nil
	var sent time.Duration
	if !inline {
		sent = env.Now()
	}
	dirInode, err := tr.LoadInode(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("metatable: load dir inode: %w", err)
	}
	inline = inline || env.Now()-sent < inlineGet
	if !dirInode.IsDir() {
		return nil, 0, fmt.Errorf("metatable: %s: %w", dir.Short(), types.ErrNotDir)
	}
	t := &Table{dir: dirInode, env: env, tr: tr, strict: !degraded && env == nil, dropped: dropped}
	dentries, err := tr.LoadDentries(dir)
	if err != nil {
		if !degraded || !errors.Is(err, types.ErrIntegrity) {
			return nil, 0, fmt.Errorf("metatable: load dentries: %w", err)
		}
		t.lost.Add(1) // the whole block; entries are uncountable
		dentries = nil
	}
	t.entries = make(map[string]wire.Dentry, len(dentries))
	t.children = make(map[types.Ino]*types.Inode, len(dentries))
	// An inline loader has every child to itself: it claims them all here.
	claim := inFlight
	if !inline {
		claim = nil // pending
	}
	for _, de := range dentries {
		t.entries[de.Name] = de
		t.children[de.Ino] = claim
	}
	if inline {
		if err := t.loadAll(1, dentries); err != nil {
			return nil, 0, err
		}
		return t, t.Lost(), nil
	}
	if len(dentries) > 0 {
		t.loading = sim.NewChan[struct{}](env)
		env.Go(func() {
			_ = t.loadAll(limit, dentries)
			t.loading.Close()
		})
	}
	return t, t.Lost(), nil
}

// loadAll is the loader: every dentry's child, in dentry order, at most limit
// at a time. In the background it claims each child that is still pending,
// and stops claiming once the table is stopped; inline it holds every claim
// already. Without an env a child's error ends it; with one the error is the
// next toucher's to meet.
func (t *Table) loadAll(limit int, dentries []wire.Dentry) error {
	background := t.loading != nil
	return sim.FanOut(t.env, len(dentries), limit, func(i int) error {
		ino := dentries[i].Ino
		if background {
			t.mu.Lock()
			if t.stopped {
				t.mu.Unlock()
				return errStopped
			}
			if n, ok := t.children[ino]; !ok || n != nil {
				t.mu.Unlock()
				return nil // loaded, in flight, removed or dropped
			}
			t.children[ino] = inFlight
			t.mu.Unlock()
		}
		if err := t.fetch(ino, dentries[i].Name); err != nil && t.env == nil {
			return err
		}
		return nil
	})
}

// fetch GETs the child ino, named name ("" if the caller does not know),
// which the caller has marked in flight, and settles it: loaded, dropped, or
// pending again. A Remove or replace that came first wins: the result is
// installed only into a child still in flight. The error is the one the
// touch that needed the child gets; a drop is not one (the name is gone, as
// if it had never been there).
func (t *Table) fetch(ino types.Ino, name string) error {
	n, err := t.tr.LoadInode(ino)
	drop := !t.strict && (errors.Is(err, types.ErrIntegrity) || errors.Is(err, types.ErrNotExist))
	t.mu.Lock()
	if err != nil && name == "" {
		for nm, de := range t.entries {
			if de.Ino == ino {
				name = nm
				break
			}
		}
	}
	lost := 0
	if t.children[ino] == inFlight {
		switch {
		case err == nil:
			t.children[ino] = n
		case drop:
			delete(t.children, ino)
			delete(t.entries, name)
			lost = int(t.lost.Add(1))
		default:
			t.children[ino] = nil // pending: the next touch retries
		}
	}
	w := t.waiters[ino]
	delete(t.waiters, ino)
	t.mu.Unlock()
	if w != nil {
		w.Close()
	}
	if lost > 0 && t.dropped != nil {
		t.dropped(lost)
	}
	if err != nil && !drop {
		return fmt.Errorf("metatable: load child %q: %w", name, err)
	}
	return nil
}

// need returns the child ino, named name ("" if unknown), as stored once it
// is loaded. A pending child is claimed and fetched on the caller's
// goroutine, with no queue in between; one in flight is waited for, alone. A
// child not in the table (never there, removed, or dropped by the fetch) is
// a miss.
func (t *Table) need(ino types.Ino, name string) (*types.Inode, error) {
	for {
		t.mu.Lock()
		n, ok := t.children[ino]
		switch {
		case !ok:
			t.mu.Unlock()
			return nil, errMiss
		case loaded(n):
			t.mu.Unlock()
			return n, nil
		case t.stopped:
			t.mu.Unlock()
			return nil, errStopped
		case n == nil:
			t.children[ino] = inFlight
			t.mu.Unlock()
			if err := t.fetch(ino, name); err != nil {
				return nil, err
			}
		default:
			w := t.waiters[ino]
			if w == nil {
				w = sim.NewChan[struct{}](t.env)
				if t.waiters == nil {
					t.waiters = make(map[types.Ino]*sim.Chan[struct{}])
				}
				t.waiters[ino] = w
			}
			t.mu.Unlock()
			w.Recv()
			if t.env.Stopped() {
				return nil, errStopped
			}
		}
	}
}

// Stop ends the table's load, when the directory is no longer led from it:
// no GET starts afterwards, and a touch of a child not yet loaded gets
// ESTALE. It does not wait for the GETs already out; Await does.
func (t *Table) Stop() {
	t.mu.Lock()
	t.stopped = true
	t.mu.Unlock()
}

// Await returns once the background loader has ended: every child is loaded
// or dropped then, except one whose GET failed and awaits its next touch.
func (t *Table) Await() {
	if t.loading != nil {
		t.loading.Recv()
	}
}

// Lost returns the number of entries dropped because their objects failed
// verification or were missing: the dentry block counts as one. A table that
// lost any is the last valid state the store can prove, served read-only.
func (t *Table) Lost() int { return int(t.lost.Load()) }

// NewEmpty builds a table for a directory that was just created in memory
// (its objects may not exist yet; the journal will materialize them).
func NewEmpty(dir *types.Inode) *Table {
	return &Table{
		dir:      dir.Clone(),
		entries:  make(map[string]wire.Dentry),
		children: make(map[types.Ino]*types.Inode),
	}
}

// DirInode returns a copy of the directory's own inode.
func (t *Table) DirInode() *types.Inode { return t.Dir().Clone() }

// Dir returns the directory's own inode as stored: read-only.
func (t *Table) Dir() *types.Inode {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dir
}

// SetDirInode replaces the directory's own inode (chmod/chown/utimes on the
// directory itself).
func (t *Table) SetDirInode(n *types.Inode) {
	t.mu.Lock()
	t.dir = n.Clone()
	t.epoch++
	t.mu.Unlock()
}

// Epoch returns the table's mutation count: the stamp an acknowledged
// operation depends on. Two equal epochs mean no mutation happened between
// the two reads.
func (t *Table) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.epoch
}

// errMiss is the answer for a name the table does not hold. It is made once:
// every create looks its name up first and expects to miss.
var errMiss = fmt.Errorf("metatable: no such entry: %w", types.ErrNotExist)

// Lookup resolves name to its dentry and a copy of the child inode.
func (t *Table) Lookup(name string) (wire.Dentry, *types.Inode, error) {
	de, child, err := t.peek(name)
	if err != nil {
		return de, nil, err
	}
	return de, child.Clone(), nil
}

// Peek resolves name to the child inode as stored: read-only.
func (t *Table) Peek(name string) (*types.Inode, error) {
	_, child, err := t.peek(name)
	return child, err
}

func (t *Table) peek(name string) (wire.Dentry, *types.Inode, error) {
	t.mu.RLock()
	de, ok := t.entries[name]
	var child *types.Inode
	if ok {
		child = t.children[de.Ino]
	}
	t.mu.RUnlock()
	if !ok {
		return wire.Dentry{}, nil, errMiss
	}
	if !loaded(child) {
		var err error
		if child, err = t.need(de.Ino, name); err != nil {
			return de, nil, err
		}
	}
	return de, child, nil
}

// Exists reports whether name is present.
func (t *Table) Exists(name string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.entries[name]
	return ok
}

// Insert adds a dentry and its child inode; it fails on duplicates.
func (t *Table) Insert(name string, child *types.Inode) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.entries[name]; dup {
		return fmt.Errorf("metatable: %q: %w", name, types.ErrExist)
	}
	t.entries[name] = wire.Dentry{Name: name, Ino: child.Ino, Type: child.Type}
	t.children[child.Ino] = child.Clone()
	t.epoch++
	return nil
}

// Remove deletes a dentry, returning the removed child inode: read-only, as a
// walk that crossed it may still hold it.
func (t *Table) Remove(name string) (*types.Inode, error) {
	for {
		t.mu.Lock()
		de, ok := t.entries[name]
		if !ok {
			t.mu.Unlock()
			return nil, errMiss
		}
		if child := t.children[de.Ino]; loaded(child) {
			delete(t.entries, name)
			delete(t.children, de.Ino)
			t.epoch++
			t.mu.Unlock()
			return child, nil
		}
		t.mu.Unlock()
		if _, err := t.need(de.Ino, name); err != nil {
			return nil, err
		}
	}
}

// UpdateChild replaces a child inode in place (setattr, size changes).
func (t *Table) UpdateChild(n *types.Inode) error {
	for {
		t.mu.Lock()
		if loaded(t.children[n.Ino]) {
			t.children[n.Ino] = n.Clone()
			t.epoch++
			t.mu.Unlock()
			return nil
		}
		t.mu.Unlock()
		if _, err := t.need(n.Ino, ""); err != nil {
			if errors.Is(err, types.ErrNotExist) {
				return fmt.Errorf("metatable: inode %s not in table: %w", n.Ino.Short(), types.ErrStale)
			}
			return err
		}
	}
}

// Child returns the child inode by number as stored: read-only. An inode the
// table does not hold is ENOENT.
func (t *Table) Child(ino types.Ino) (*types.Inode, error) { return t.need(ino, "") }

// List returns all dentries sorted by name (readdir).
func (t *Table) List() []wire.Dentry {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]wire.Dentry, 0, len(t.entries))
	for _, de := range t.entries {
		out = append(out, de)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of dentries.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.entries)
}

// FlushTo writes the table's full state to the object store through the
// translator — used when handing a directory over outside the journal path
// (tests and bulk imports; normal operation checkpoints via the journal). It
// loads every child first.
func (t *Table) FlushTo(tr *prt.Translator) error {
	t.mu.RLock()
	var unloaded []types.Ino
	for ino, n := range t.children {
		if !loaded(n) {
			unloaded = append(unloaded, ino)
		}
	}
	t.mu.RUnlock()
	for _, ino := range unloaded {
		if _, err := t.need(ino, ""); err != nil && !errors.Is(err, types.ErrNotExist) {
			return err
		}
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := tr.SaveInode(t.dir); err != nil {
		return err
	}
	dentries := make([]wire.Dentry, 0, len(t.entries))
	for _, de := range t.entries {
		dentries = append(dentries, de)
	}
	sort.Slice(dentries, func(i, j int) bool { return dentries[i].Name < dentries[j].Name })
	if err := tr.SaveDentries(t.dir.Ino, dentries); err != nil {
		return err
	}
	for _, child := range t.children {
		if err := tr.SaveInode(child); err != nil {
			return err
		}
	}
	return nil
}
