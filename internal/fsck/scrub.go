package fsck

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"arkfs/internal/journal"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// QuarantinePrefix is where the scrubber moves objects it cannot repair:
// the original bytes survive as evidence under quarantine/<original-key>
// while the corrupt object leaves the live key space. Check inventories
// quarantined objects but never flags them.
const QuarantinePrefix = "quarantine/"

// Action is one repair the scrubber performed — or, when repair is off,
// planned. Op is a stable identifier: "quarantine", "truncate-journal",
// "restore-inode", "rebuild-dentries", "rewrite-superblock", "gc",
// "gc-skipped".
type Action struct {
	Op     string
	Key    string
	Detail string
}

func (a Action) String() string {
	return fmt.Sprintf("%-19s %-34s %s", a.Op, a.Key, a.Detail)
}

// ScrubReport is the outcome of a scrub pass.
type ScrubReport struct {
	// Planned is true when repair was off: Actions describe what a repair
	// run would do, and the store was not modified.
	Planned bool
	Actions []Action
	// Pre is the consistency check before repairs; Post re-checks the image
	// after them (nil in a planning run).
	Pre, Post *Report
	// GCSkipped is set when orphan collection was withheld because valid
	// journal records are still pending recovery somewhere — a pending
	// record may re-link an object that currently looks orphaned.
	GCSkipped bool
}

type scrubber struct {
	store   objstore.Store
	tr      *prt.Translator
	repair  bool
	rep     *ScrubReport
	rebuilt bool // a dentry block was rebuilt: orphans go to quarantine
}

// Scrub checks the image and repairs what the journal can prove. With
// repair false it only plans: every Action that a repair run would take is
// recorded, and the store is left untouched.
//
// Repair strategy, in dependency order:
//
//  1. a corrupt superblock is quarantined and rewritten with the default
//     chunk size (the only parameter it carries);
//  2. each directory journal is cut at its first corrupt record — the
//     record is quarantined and everything after it discarded unreplayed,
//     the same truncation rule recovery applies;
//  3. a corrupt inode object is restored from the latest journaled
//     OpSetInode copy if one survives, else quarantined;
//  4. a corrupt dentry block is quarantined and rebuilt by replaying the
//     directory's surviving committed journal records (replay is
//     idempotent, so a later leader recovery replaying them again is
//     harmless);
//  5. a corrupt data chunk has no second copy: it is quarantined and the
//     file reads a hole there;
//  6. orphans (unreachable inodes, dentry blocks, chunks, journals) are
//     collected — only when no valid journal record is pending anywhere.
//     After a step 4 rebuild they are quarantined instead (journals aside):
//     the children a rebuilt block lost are orphans, not garbage.
func Scrub(store objstore.Store, repair bool) (*ScrubReport, error) {
	pre, err := Check(store)
	if err != nil {
		return nil, err
	}
	chunkSize := prt.DefaultChunkSize
	if raw, err := store.Get(prt.SuperblockKey); err == nil {
		if sb, derr := prt.DecodeSuperblock(raw); derr == nil {
			chunkSize = sb.ChunkSize
		}
	}
	s := &scrubber{
		store:  store,
		tr:     prt.New(store, chunkSize),
		repair: repair,
		rep:    &ScrubReport{Planned: !repair, Pre: pre},
	}
	for _, pass := range []func() error{
		s.superblock, s.journals, s.inodes, s.dentries, s.chunks, s.collectOrphans,
	} {
		if err := pass(); err != nil {
			return s.rep, err
		}
	}
	if repair {
		post, err := Check(store)
		if err != nil {
			return s.rep, err
		}
		s.rep.Post = post
	}
	return s.rep, nil
}

// act records an action and reports whether the scrubber should execute it.
func (s *scrubber) act(op, key, detail string, args ...any) bool {
	s.rep.Actions = append(s.rep.Actions,
		Action{Op: op, Key: key, Detail: fmt.Sprintf(detail, args...)})
	return s.repair
}

// quarantine moves key under QuarantinePrefix.
func (s *scrubber) quarantine(key, why string) error {
	if !s.act("quarantine", key, "%s", why) {
		return nil
	}
	raw, err := s.store.Get(key)
	if err != nil {
		if errors.Is(err, types.ErrNotExist) {
			return nil // raced with a concurrent delete; nothing to preserve
		}
		return fmt.Errorf("fsck: quarantine read %s: %w", key, err)
	}
	if err := s.store.Put(QuarantinePrefix+key, raw); err != nil {
		return fmt.Errorf("fsck: quarantine put %s: %w", key, err)
	}
	if err := s.store.Delete(key); err != nil && !errors.Is(err, types.ErrNotExist) {
		return fmt.Errorf("fsck: quarantine delete %s: %w", key, err)
	}
	return nil
}

// superblock quarantines a corrupt formatting record and rewrites it with
// the default chunk size — the only parameter it carries, and the only
// value this tree ever formats with.
func (s *scrubber) superblock() error {
	raw, err := s.store.Get(prt.SuperblockKey)
	if err != nil {
		return nil // missing: Check reports it; there is nothing to repair from
	}
	if _, derr := prt.DecodeSuperblock(raw); derr == nil {
		return nil
	}
	if err := s.quarantine(prt.SuperblockKey, "superblock fails verification"); err != nil {
		return err
	}
	if !s.act("rewrite-superblock", prt.SuperblockKey,
		"rewritten assuming the default chunk size %d", prt.DefaultChunkSize) {
		return nil
	}
	sb := prt.Superblock{Version: 1, ChunkSize: prt.DefaultChunkSize}
	return s.store.Put(prt.SuperblockKey, prt.EncodeSuperblock(sb))
}

// journals applies the recovery truncation rule to every directory journal:
// the first record that fails verification is quarantined and every later
// record in sequence order is discarded unreplayed. Journal keys without a
// parsable sequence cannot occupy a slot and are quarantined outright.
func (s *scrubber) journals() error {
	keys, err := s.store.List(prt.PrefixJournal)
	if err != nil {
		return fmt.Errorf("fsck: scrub list journals: %w", err)
	}
	type rec struct {
		key string
		seq uint64
	}
	byDir := map[string][]rec{}
	for _, k := range keys {
		rest := strings.TrimPrefix(k, prt.PrefixJournal)
		i := strings.IndexByte(rest, ':')
		seq, perr := prt.ParseJournalSeq(k)
		if i <= 0 || perr != nil {
			if err := s.quarantine(k, "journal key without a parsable sequence"); err != nil {
				return err
			}
			continue
		}
		byDir[rest[:i]] = append(byDir[rest[:i]], rec{key: k, seq: seq})
	}
	for _, dir := range sortedKeys(byDir) { // deterministic action order across directories
		recs := byDir[dir]
		sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
		cut := false
		for _, r := range recs {
			if cut {
				if s.act("truncate-journal", r.key,
					"follows the first corrupt record; discarded unreplayed") {
					if err := s.store.Delete(r.key); err != nil && !errors.Is(err, types.ErrNotExist) {
						return fmt.Errorf("fsck: scrub truncate %s: %w", r.key, err)
					}
				}
				continue
			}
			raw, err := s.store.Get(r.key)
			if err != nil {
				if errors.Is(err, types.ErrNotExist) {
					continue
				}
				return fmt.Errorf("fsck: scrub read %s: %w", r.key, err)
			}
			if _, derr := wire.DecodeTxn(raw); derr != nil {
				cut = true
				if err := s.quarantine(r.key,
					fmt.Sprintf("corrupt journal record (%v); journal truncated here", derr)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// setInodeCopies indexes the latest journaled OpSetInode copy of every inode
// found in surviving committed records — the source scrub restores corrupt
// inode objects from. Prepared (undecided 2PC) records are excluded: their
// operations may yet abort.
func (s *scrubber) setInodeCopies() (map[string]*types.Inode, error) {
	keys, err := s.store.List(prt.PrefixJournal)
	if err != nil {
		return nil, fmt.Errorf("fsck: scrub list journals: %w", err)
	}
	// List sorts lexically and sequences are fixed-width hex, so within each
	// directory later writes overwrite earlier ones.
	copies := map[string]*types.Inode{}
	for _, k := range keys {
		raw, err := s.store.Get(k)
		if err != nil {
			continue
		}
		txn, derr := wire.DecodeTxn(raw)
		if derr != nil || txn.Kind != wire.TxnNormal {
			continue
		}
		for _, op := range txn.Ops {
			if op.Kind == wire.OpSetInode && op.Inode != nil {
				copies[prt.InodeKey(op.Inode.Ino)] = op.Inode
			}
		}
	}
	return copies, nil
}

// inodes restores corrupt inode objects from journaled copies, quarantining
// those with no surviving copy.
func (s *scrubber) inodes() error {
	keys, err := s.store.List(prt.PrefixInode)
	if err != nil {
		return fmt.Errorf("fsck: scrub list inodes: %w", err)
	}
	var copies map[string]*types.Inode // built lazily on the first corruption
	for _, k := range keys {
		raw, err := s.store.Get(k)
		if err != nil {
			continue
		}
		if _, derr := wire.DecodeInode(raw); derr == nil {
			continue
		}
		if copies == nil {
			if copies, err = s.setInodeCopies(); err != nil {
				return err
			}
		}
		if n := copies[k]; n != nil {
			if s.act("restore-inode", k, "rewritten from the latest journaled copy") {
				if err := s.tr.SaveInode(n); err != nil {
					return fmt.Errorf("fsck: scrub restore %s: %w", k, err)
				}
			}
			continue
		}
		if err := s.quarantine(k, "corrupt inode with no journaled copy"); err != nil {
			return err
		}
	}
	return nil
}

// dentries quarantines corrupt dentry blocks and rebuilds them by replaying
// the directory's surviving committed journal records. Entries present only
// in the lost checkpoint are not recoverable — their inodes surface as
// orphans in the post-repair check.
func (s *scrubber) dentries() error {
	keys, err := s.store.List(prt.PrefixDentry)
	if err != nil {
		return fmt.Errorf("fsck: scrub list dentries: %w", err)
	}
	for _, k := range keys {
		raw, err := s.store.Get(k)
		if err != nil {
			continue
		}
		if _, derr := wire.DecodeDentries(raw); derr == nil {
			continue
		}
		dir, perr := types.ParseIno(strings.TrimPrefix(k, prt.PrefixDentry))
		if perr != nil {
			if err := s.quarantine(k, "corrupt dentry block under an unparsable key"); err != nil {
				return err
			}
			continue
		}
		if err := s.quarantine(k, "corrupt dentry block"); err != nil {
			return err
		}
		s.rebuilt = true
		if !s.act("rebuild-dentries", k, "replaying the journal of %s", dir.Short()) {
			continue
		}
		if err := s.replayDir(dir); err != nil {
			return err
		}
	}
	return nil
}

// replayDir re-applies dir's committed journal records in sequence order.
// The records stay in the journal — replay is idempotent, so the next
// leader's recovery replaying them again converges to the same state.
func (s *scrubber) replayDir(dir types.Ino) error {
	jkeys, err := s.store.List(prt.JournalPrefix(dir))
	if err != nil {
		return fmt.Errorf("fsck: scrub replay list: %w", err)
	}
	type rec struct {
		seq uint64
		txn *wire.Txn
	}
	recs := make([]rec, 0, len(jkeys))
	for _, jk := range jkeys {
		seq, perr := prt.ParseJournalSeq(jk)
		if perr != nil {
			continue // quarantined by the journal pass
		}
		raw, err := s.store.Get(jk)
		if err != nil {
			continue
		}
		txn, derr := wire.DecodeTxn(raw)
		if derr != nil || txn.Kind != wire.TxnNormal {
			continue
		}
		recs = append(recs, rec{seq: seq, txn: txn})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	for _, r := range recs {
		if err := journal.ApplyOps(s.tr, dir, r.txn.Ops); err != nil {
			return fmt.Errorf("fsck: scrub replay %s seq %d: %w", dir.Short(), r.seq, err)
		}
	}
	return nil
}

// chunks quarantines data chunks that fail verification. There is no second
// copy to repair from; the file reads a hole over the quarantined extent,
// which is strictly better than serving silently corrupt bytes.
func (s *scrubber) chunks() error {
	keys, err := s.store.List(prt.PrefixData)
	if err != nil {
		return fmt.Errorf("fsck: scrub list chunks: %w", err)
	}
	for _, k := range keys {
		raw, err := s.store.Get(k)
		if err != nil {
			continue
		}
		if _, derr := wire.Unseal(raw); derr != nil {
			if err := s.quarantine(k,
				"data chunk fails verification; no replica to repair from, reads see a hole"); err != nil {
				return err
			}
		}
	}
	return nil
}

// collectOrphans garbage-collects unreachable objects — but only when no
// valid journal record is pending anywhere. A pending record may re-link an
// object that currently looks orphaned (an OpAddDentry whose checkpoint
// never ran), so collection before recovery would destroy acknowledged work.
func (s *scrubber) collectOrphans() error {
	jkeys, err := s.store.List(prt.PrefixJournal)
	if err != nil {
		return fmt.Errorf("fsck: scrub list journals: %w", err)
	}
	for _, k := range jkeys {
		raw, err := s.store.Get(k)
		if err != nil {
			continue
		}
		if _, derr := wire.DecodeTxn(raw); derr == nil {
			s.rep.GCSkipped = true
			s.act("gc-skipped", k, "valid journal records pending recovery; orphan collection withheld")
			return nil
		}
	}
	rep, err := Check(s.store) // fresh reachability after the repair passes
	if err != nil {
		return err
	}
	for _, p := range rep.Problems {
		keys, detail := []string{p.Path}, p.Detail
		switch p.Kind {
		case "orphan-inode", "orphan-dentries":
		case "orphan-chunks", "dangling-chunks", "orphan-journal":
			// Path is the key prefix of the group; collect every member.
			if keys, err = s.store.List(p.Path + ":"); err != nil {
				return fmt.Errorf("fsck: gc list %s: %w", p.Path, err)
			}
			detail = p.Kind
		default:
			continue
		}
		for _, k := range keys {
			if s.rebuilt && p.Kind != "orphan-journal" {
				err = s.quarantine(k, "unreachable after a dentry rebuild: "+detail)
			} else if s.act("gc", k, "%s", detail) {
				if err = s.store.Delete(k); errors.Is(err, types.ErrNotExist) {
					err = nil
				}
			}
			if err != nil {
				return fmt.Errorf("fsck: gc %s: %w", k, err)
			}
		}
	}
	return nil
}
