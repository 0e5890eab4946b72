// Package metatable implements ArkFS's per-directory metadata table (paper
// §III-C): the in-memory structure a directory leader builds after acquiring
// the lease. It holds the directory's own inode, its dentries, and the inodes
// of all child files, so that every metadata operation — lookup, permission
// check, create, unlink, stat, readdir — is a local memory operation with no
// remote communication.
package metatable

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"arkfs/internal/prt"
	"arkfs/internal/sim"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Table is one directory's metadata table. The owning client is the
// directory leader; all mutations happen under the table lock and are
// mirrored into the per-directory journal by the caller.
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
}

// Load builds the metatable for dir from the object store: the directory
// inode, the dentry block, and every child inode (eager, as in the paper —
// after this, operations never touch the store until checkpoint). It fetches
// one object after another; a leader taking a directory over uses LoadWith.
func Load(tr *prt.Translator, dir types.Ino) (*Table, error) {
	t, _, err := LoadWith(nil, 1, tr, dir, false)
	return t, err
}

// LoadDegraded builds as much of the metatable as survives verification:
// a corrupt dentry block yields an empty entry table, and a corrupt or
// missing child inode drops that entry. The result is the last valid state
// the store can prove — the caller serves it read-only and reports how many
// entries were lost. Only integrity failures are tolerated; infrastructure
// errors (including an unreadable directory inode) still fail the load.
func LoadDegraded(tr *prt.Translator, dir types.Ino) (*Table, int, error) {
	return LoadWith(nil, 1, tr, dir, true)
}

// LoadWith is the loader behind Load and LoadDegraded. The child inodes are
// independent objects, so their GETs overlap, at most limit at a time on
// goroutines of env (sim.FanOut: the table built and the error reported are
// those of the one-by-one loop, whatever order the GETs complete in; limit 1
// is that loop, and then env may be nil). degraded selects the rule for a
// dentry block or a child that fails verification, or a child that is
// missing: fail the load, or drop it and count it in lost.
func LoadWith(env sim.Env, limit int, tr *prt.Translator, dir types.Ino, degraded bool) (t *Table, lost int, err error) {
	dirInode, err := tr.LoadInode(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("metatable: load dir inode: %w", err)
	}
	if !dirInode.IsDir() {
		return nil, 0, fmt.Errorf("metatable: %s: %w", dir.Short(), types.ErrNotDir)
	}
	dentries, err := tr.LoadDentries(dir)
	if err != nil {
		if !degraded || !errors.Is(err, types.ErrIntegrity) {
			return nil, 0, fmt.Errorf("metatable: load dentries: %w", err)
		}
		lost++ // the whole block; entries are uncountable
		dentries = nil
	}
	children := make([]*types.Inode, len(dentries)) // nil: dropped
	err = sim.FanOut(env, len(dentries), limit, func(i int) error {
		child, err := tr.LoadInode(dentries[i].Ino)
		if err != nil && !(degraded && (errors.Is(err, types.ErrIntegrity) || errors.Is(err, types.ErrNotExist))) {
			return fmt.Errorf("metatable: load child %q: %w", dentries[i].Name, err)
		}
		children[i] = child
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	t = &Table{
		dir:      dirInode,
		entries:  make(map[string]wire.Dentry, len(dentries)),
		children: make(map[types.Ino]*types.Inode, len(dentries)),
	}
	for i, de := range dentries {
		if children[i] == nil {
			lost++
			continue
		}
		t.entries[de.Name] = de
		t.children[de.Ino] = children[i]
	}
	return t, lost, nil
}

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
func (t *Table) DirInode() *types.Inode {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.dir.Clone()
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

// Lookup resolves name to its dentry and a copy of the child inode.
func (t *Table) Lookup(name string) (wire.Dentry, *types.Inode, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	de, ok := t.entries[name]
	if !ok {
		return wire.Dentry{}, nil, fmt.Errorf("metatable: %q: %w", name, types.ErrNotExist)
	}
	child := t.children[de.Ino]
	if child == nil {
		return de, nil, fmt.Errorf("metatable: %q: dangling dentry: %w", name, types.ErrIO)
	}
	return de, child.Clone(), nil
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

// Remove deletes a dentry, returning the removed child inode copy.
func (t *Table) Remove(name string) (*types.Inode, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	de, ok := t.entries[name]
	if !ok {
		return nil, fmt.Errorf("metatable: %q: %w", name, types.ErrNotExist)
	}
	delete(t.entries, name)
	child := t.children[de.Ino]
	delete(t.children, de.Ino)
	t.epoch++
	if child == nil {
		return nil, fmt.Errorf("metatable: %q: dangling dentry: %w", name, types.ErrIO)
	}
	return child, nil
}

// UpdateChild replaces a child inode in place (setattr, size changes).
func (t *Table) UpdateChild(n *types.Inode) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.children[n.Ino]; !ok {
		return fmt.Errorf("metatable: inode %s not in table: %w", n.Ino.Short(), types.ErrStale)
	}
	t.children[n.Ino] = n.Clone()
	t.epoch++
	return nil
}

// Child returns a copy of the child inode by number.
func (t *Table) Child(ino types.Ino) (*types.Inode, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n, ok := t.children[ino]
	if !ok {
		return nil, false
	}
	return n.Clone(), true
}

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
// (tests and bulk imports; normal operation checkpoints via the journal).
func (t *Table) FlushTo(tr *prt.Translator) error {
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
