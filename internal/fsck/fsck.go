// Package fsck implements an offline consistency checker for an ArkFS
// object-store image. It walks the namespace from the root inode and
// validates the invariants the journaling design guarantees:
//
//   - every dentry references an existing, decodable inode;
//   - directory inodes have (or may legitimately lack) a dentry block, and
//     every dentry block belongs to a reachable directory;
//   - every data chunk belongs to a reachable regular file and lies inside
//     its size (no orphan or out-of-bounds chunks);
//   - journals are empty, or contain only records a recovery pass would
//     resolve (reported, since they imply an unclean shutdown); journal
//     objects for directories with no inode object are flagged as orphans;
//   - inode and dentry objects that no dentry references are orphans, and
//     data chunks whose inode object is gone entirely are dangling;
//   - every persisted record (inode, dentry block, journal txn, data chunk,
//     superblock) carries a CRC32C trailer, verified during the scan.
//
// Check is read-only. Scrub repairs what the journal can prove: it truncates
// corrupt journals, rebuilds checkpoints from journal replay, restores
// corrupt inodes from journaled copies, quarantines unrecoverable objects
// under the quarantine/ prefix, and garbage-collects orphans — the latter
// only when no valid journal records are pending anywhere. cmd/arkfsck
// drives both.
package fsck

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Problem is one detected inconsistency.
type Problem struct {
	// Kind is a stable identifier, e.g. "dangling-dentry".
	Kind string
	// Path locates the problem when known ("/a/b"), else the object key.
	Path string
	// Detail is a human-readable explanation.
	Detail string
}

func (p Problem) String() string {
	return fmt.Sprintf("%-18s %-30s %s", p.Kind, p.Path, p.Detail)
}

// Report is the checker's outcome.
type Report struct {
	// Counts of scanned entities.
	Dirs, Files, Symlinks, Chunks int
	// PendingJournalRecords counts valid journal records awaiting recovery
	// (an unclean shutdown, not corruption).
	PendingJournalRecords int
	// Quarantined counts objects a previous scrub moved under the
	// quarantine/ prefix. They are evidence, not live state, so they are
	// inventoried but never treated as inconsistencies.
	Quarantined int
	Problems    []Problem
}

// Clean reports whether no inconsistencies were found.
func (r *Report) Clean() bool { return len(r.Problems) == 0 }

func (r *Report) add(kind, path, format string, args ...any) {
	r.Problems = append(r.Problems, Problem{Kind: kind, Path: path, Detail: fmt.Sprintf(format, args...)})
}

// Check validates the file-system image in store.
func Check(store objstore.Store) (*Report, error) {
	rep := &Report{}
	chunkSize := prt.DefaultChunkSize
	if raw, err := store.Get(prt.SuperblockKey); err == nil {
		if sb, derr := prt.DecodeSuperblock(raw); derr == nil {
			chunkSize = sb.ChunkSize
		} else {
			rep.add("bad-superblock", prt.SuperblockKey, "%v", derr)
		}
	} else {
		rep.add("missing-superblock", prt.SuperblockKey,
			"no formatting record; extent checks assume the default chunk size")
	}
	tr := prt.New(store, chunkSize)

	// Inventory every object by prefix.
	keys, err := store.List("")
	if err != nil {
		return nil, fmt.Errorf("fsck: list: %w", err)
	}
	inodeKeys := map[string]bool{}  // ino hex -> present
	dentryKeys := map[string]bool{} // dir ino hex -> present
	journalKeys := map[string][]string{}
	chunkKeys := map[string][]int64{} // file ino hex -> chunk indices
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, prt.PrefixInode):
			inodeKeys[strings.TrimPrefix(k, prt.PrefixInode)] = true
		case strings.HasPrefix(k, prt.PrefixDentry):
			dentryKeys[strings.TrimPrefix(k, prt.PrefixDentry)] = true
		case strings.HasPrefix(k, prt.PrefixJournal):
			rest := strings.TrimPrefix(k, prt.PrefixJournal)
			if i := strings.IndexByte(rest, ':'); i > 0 {
				journalKeys[rest[:i]] = append(journalKeys[rest[:i]], k)
			} else {
				rep.add("bad-journal-key", k, "journal key without sequence")
			}
		case strings.HasPrefix(k, prt.PrefixData):
			rest := strings.TrimPrefix(k, prt.PrefixData)
			i := strings.IndexByte(rest, ':')
			if i <= 0 {
				rep.add("bad-data-key", k, "data key without chunk index")
				continue
			}
			idx, err := strconv.ParseInt(rest[i+1:], 10, 64)
			if err != nil {
				rep.add("bad-data-key", k, "unparsable chunk index: %v", err)
				continue
			}
			chunkKeys[rest[:i]] = append(chunkKeys[rest[:i]], idx)
		case k == prt.SuperblockKey:
			// formatting record, consumed above
		case strings.HasPrefix(k, QuarantinePrefix):
			// evidence preserved by a scrub -repair run, outside the live
			// key space by construction
			rep.Quarantined++
		case strings.HasPrefix(k, lease.SnapshotPrefix):
			// lease-manager grant-table snapshot: control-plane state, not
			// part of the file-system namespace. Verify the seal so a
			// corrupted snapshot is surfaced (a shard restarting onto it
			// degrades to the conservative cold-restart path, which is safe
			// but slow).
			if raw, gerr := store.Get(k); gerr == nil {
				if _, serr := wire.Unseal(raw); serr != nil {
					rep.add("corrupt-lease-snapshot", k, "grant-table snapshot fails its CRC: %v", serr)
				}
			}
		default:
			rep.add("unknown-key", k, "object key outside the PRT scheme")
		}
	}

	// Walk the namespace.
	reachedInodes := map[string]*types.Inode{}
	reachedDirs := map[string]bool{}
	root, err := tr.LoadInode(types.RootIno)
	if err != nil {
		rep.add("missing-root", "/", "root inode unreadable: %v", err)
		return rep, nil
	}
	var walk func(path string, dir *types.Inode)
	walk = func(path string, dir *types.Inode) {
		rep.Dirs++
		reachedInodes[dir.Ino.String()] = dir
		reachedDirs[dir.Ino.String()] = true
		entries, err := tr.LoadDentries(dir.Ino)
		if err != nil {
			rep.add("bad-dentry-block", path, "undecodable dentry block: %v", err)
			return
		}
		names := map[string]bool{}
		for _, de := range entries {
			childPath := path + "/" + de.Name
			if path == "/" {
				childPath = "/" + de.Name
			}
			if err := types.ValidName(de.Name); err != nil {
				rep.add("bad-name", childPath, "%v", err)
			}
			if names[de.Name] {
				rep.add("duplicate-dentry", childPath, "name appears twice")
				continue
			}
			names[de.Name] = true
			child, err := tr.LoadInode(de.Ino)
			if err != nil {
				kind := "dangling-dentry"
				if errors.Is(err, types.ErrIntegrity) {
					// The object is present but fails CRC verification — a
					// scrub can often restore it from a journaled copy.
					kind = "corrupt-inode"
				}
				rep.add(kind, childPath, "inode %s unreadable: %v", de.Ino.Short(), err)
				continue
			}
			if child.Type != de.Type {
				rep.add("type-mismatch", childPath, "dentry says %v, inode says %v", de.Type, child.Type)
			}
			switch child.Type {
			case types.TypeDir:
				if reachedDirs[child.Ino.String()] {
					rep.add("dir-cycle", childPath, "directory reachable twice")
					continue
				}
				walk(childPath, child)
			case types.TypeSymlink:
				rep.Symlinks++
				reachedInodes[child.Ino.String()] = child
				if child.Target == "" {
					rep.add("empty-symlink", childPath, "symlink without target")
				}
			default:
				rep.Files++
				reachedInodes[child.Ino.String()] = child
				// Validate chunk extents.
				maxChunks := (child.Size + tr.ChunkSize() - 1) / tr.ChunkSize()
				for _, idx := range chunkKeys[child.Ino.String()] {
					rep.Chunks++
					if idx >= maxChunks {
						rep.add("chunk-beyond-eof", childPath,
							"chunk %d outside size %d", idx, child.Size)
						continue
					}
					// Verify the chunk digest: a read through the normal
					// path would fail with EINTEGRITY, so surface it here.
					if _, err := tr.GetChunk(child.Ino, idx); err != nil {
						if errors.Is(err, types.ErrIntegrity) {
							rep.add("corrupt-chunk", childPath,
								"chunk %d fails verification: %v", idx, err)
						} else if !errors.Is(err, types.ErrNotExist) {
							rep.add("chunk-read", childPath, "chunk %d: %v", idx, err)
						}
					}
				}
				delete(chunkKeys, child.Ino.String())
			}
		}
	}
	walk("/", root)

	// Anything left in chunkKeys has no owning file. Distinguish chunks whose
	// inode object still exists but fell out of the namespace (orphan: the
	// file is recoverable) from chunks whose inode is gone entirely (dangling:
	// leaked space, e.g. a crash between chunk deletion fan-out and the
	// journal checkpoint that removed the inode). Every leftover is reported in
	// key order, so two checks of one image print the same report.
	for _, ino := range sortedKeys(chunkKeys) {
		idxs := chunkKeys[ino]
		if inodeKeys[ino] {
			rep.add("orphan-chunks", prt.PrefixData+ino, "%d chunk(s) with no reachable file", len(idxs))
		} else {
			rep.add("dangling-chunks", prt.PrefixData+ino, "%d chunk(s) whose inode object no longer exists", len(idxs))
		}
		rep.Chunks += len(idxs)
	}
	// Unreachable inode objects.
	for _, ino := range sortedKeys(inodeKeys) {
		if _, ok := reachedInodes[ino]; !ok {
			rep.add("orphan-inode", prt.PrefixInode+ino, "inode object not reachable from /")
		}
	}
	// Dentry blocks of unreachable directories.
	for _, dir := range sortedKeys(dentryKeys) {
		if !reachedDirs[dir] {
			rep.add("orphan-dentries", prt.PrefixDentry+dir, "dentry block of unreachable directory")
		}
	}
	// Journals: decodable records mean an unclean shutdown (recovery due);
	// undecodable ones are torn tails recovery would drop. Journal objects
	// for a directory whose inode object is gone entirely are orphans — no
	// future leader will ever replay them (the directory was removed, or its
	// creation never became durable), so they are leaked space, not pending
	// work.
	for _, dir := range sortedKeys(journalKeys) { // the reads below are round trips: a replayable order
		keys := journalKeys[dir]
		if !inodeKeys[dir] {
			rep.add("orphan-journal", prt.PrefixJournal+dir,
				"%d journal object(s) for a directory with no inode object", len(keys))
			continue
		}
		for _, k := range keys {
			raw, err := store.Get(k)
			if err != nil {
				if errors.Is(err, types.ErrNotExist) {
					continue
				}
				rep.add("journal-read", k, "%v", err)
				continue
			}
			if _, err := wire.DecodeTxn(raw); err != nil {
				rep.add("torn-journal", k, "undecodable record (crash tail): %v", err)
				continue
			}
			rep.PendingJournalRecords++
		}
	}
	return rep, nil
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
