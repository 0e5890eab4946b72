package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"arkfs/internal/journal"
	"arkfs/internal/obs"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Rename moves src to dst. Same-directory renames are a single journaled
// transaction; cross-directory renames run the two-phase commit of paper
// §III-E, coordinated by the source directory's leader.
func (c *Client) Rename(ctx context.Context, src, dst string) error {
	ctx, op := c.startOp(ctx, "rename", src)
	c.chargeFUSE()
	// Lexical cycle guard: a directory cannot move into its own subtree.
	cleanSrc, err := types.SplitPath(src)
	if err != nil {
		return op.end(errnoWrap("rename", src, err))
	}
	cleanDst, err := types.SplitPath(dst)
	if err != nil {
		return op.end(errnoWrap("rename", dst, err))
	}
	if strings.HasPrefix(types.JoinPath(cleanDst)+"/", types.JoinPath(cleanSrc)+"/") {
		return op.end(errnoWrap("rename", src, types.ErrInval))
	}

	sres, err := c.resolvePath(ctx, src, false)
	if err != nil {
		return op.end(errnoWrap("rename", src, err))
	}
	if sres.name == "" || sres.node == nil {
		return op.end(errnoWrap("rename", src, types.ErrNotExist))
	}
	dres, err := c.resolvePath(ctx, dst, false)
	if err != nil {
		return op.end(errnoWrap("rename", dst, err))
	}
	if dres.name == "" {
		return op.end(errnoWrap("rename", dst, types.ErrExist))
	}
	if dres.node != nil && dres.node.IsDir() {
		// Replacing a directory requires it to be empty.
		entries, rerr := c.readdirIno(ctx, dres.node.Ino)
		if rerr != nil {
			return op.end(errnoWrap("rename", dst, rerr))
		}
		if len(entries) > 0 {
			return op.end(errnoWrap("rename", dst, types.ErrNotEmpty))
		}
	}

	// The hint only saves the coordinator a manager round trip; if discovery
	// fails here the coordinator discovers (and reports) for itself.
	hint, _ := c.remoteLeaderHint(ctx, dres.parent)
	req := RenameReq{
		SrcDir: sres.parent, SrcName: sres.name,
		DstDir: dres.parent, DstName: dres.name,
		Cred: c.opts.Cred, DstLeaderHint: hint,
	}
	defer func() {
		c.pcacheInvalidate(sres.parent)
		c.pcacheInvalidate(dres.parent)
	}()

	// The source directory's leader coordinates.
	ld, _, err := forward[RenameResp](ctx, c, obs.SpanFrom(ctx), sres.parent, req)
	if ld != nil {
		err = c.coordinateRename(ctx, req)
	}
	return op.end(errnoWrap("rename", src, err))
}

// coordinateRename runs on the source directory's leader.
func (c *Client) coordinateRename(ctx context.Context, r RenameReq) error {
	ld, ok := c.ledDirFor(r.SrcDir)
	if !ok {
		return types.ErrStale
	}
	if r.SrcDir == r.DstDir {
		return c.localRenameSameDir(ctx, ld, r.SrcDir, r.SrcName, r.DstName, r.Cred)
	}

	// --- Phase 0: validate and pin the source side.
	ld.opMu.Lock()
	if err := ld.writable(); err != nil {
		ld.opMu.Unlock()
		return err
	}
	if err := ld.table.Dir().Access(r.Cred, types.MayWrite|types.MayExec); err != nil {
		ld.opMu.Unlock()
		return err
	}
	moving, err := ld.table.Peek(r.SrcName)
	if err != nil {
		ld.opMu.Unlock()
		return err
	}
	// A data lease does not move with its file: the new parent's leader will
	// have no holder to recall, so what the writer still caches goes to the
	// store now, before anyone can open the file there.
	c.recallHolders(ctx, moving.Ino, ld.leases.takeWriter(moving.Ino))
	ld.opMu.Unlock()

	txid := c.jrnl.NewTxnID()
	srcOps := []wire.Op{{Kind: wire.OpDelDentry, Name: r.SrcName}}

	// --- Phase 1: prepare both journals (source first).
	if err := c.jrnl.WritePrepare(ctx, r.SrcDir, txid, r.DstDir, srcOps); err != nil {
		return err
	}
	prep := PrepareRenameReq{
		TxID: txid, CoordDir: r.SrcDir, DstDir: r.DstDir, DstName: r.DstName,
		Child: moving, Cred: r.Cred,
	}
	var prepErr error
	if dstLd, ok := c.ledDirFor(r.DstDir); ok {
		prepErr = c.prepareRenameLocal(ctx, dstLd, prep)
	} else {
		prepErr = c.callParticipant(ctx, r, prep)
	}

	// --- Phase 2: decide, record the decision, apply both sides.
	commit := prepErr == nil
	if err := c.jrnl.WriteDecision(ctx, r.SrcDir, txid, r.DstDir, commit); err != nil {
		// Could not persist the decision: abort locally; the participant
		// will presume abort during recovery.
		_ = c.jrnl.ResolvePrepared(ctx, r.SrcDir, txid, false)
		return fmt.Errorf("core: rename decision: %w", err)
	}
	if commit {
		// Apply the source-side removal to the metatable under the lock,
		// then checkpoint the prepared ops.
		ld.opMu.Lock()
		if _, err := ld.table.Remove(r.SrcName); err == nil {
			now := c.env.Now()
			dn := ld.table.DirInode()
			dn.Mtime, dn.Ctime = now, now
			ld.table.SetDirInode(dn)
		}
		ld.opMu.Unlock()
	}
	if err := c.jrnl.ResolvePrepared(ctx, r.SrcDir, txid, commit); err != nil {
		return err
	}
	// Tell the participant the decision; once it has resolved its prepare,
	// the decision record can be garbage-collected.
	decide := DecideRenameReq{TxID: txid, DstDir: r.DstDir, Commit: commit}
	var decideErr error
	if dstLd, ok := c.ledDirFor(r.DstDir); ok {
		decideErr = c.decideRenameLocal(ctx, dstLd, decide)
	} else {
		decideErr = c.callParticipant(ctx, r, decide)
	}
	if decideErr == nil {
		_ = c.jrnl.DeleteDecision(r.SrcDir, txid)
	}
	if !commit {
		return fmt.Errorf("core: rename prepare failed: %w", prepErr)
	}
	return nil
}

// callParticipant sends one 2PC leg (prepare or decide) to the leader of the
// rename's destination directory: at the requester's hint if it gave a usable
// one, else wherever discovery points. A discovery failure is returned as
// itself; there is no leader to call. No retry loop: the coordinator's answer
// to a failed leg is to abort (prepare) or keep its decision record (decide).
func (c *Client) callParticipant(ctx context.Context, r RenameReq, leg any) error {
	leader := r.DstLeaderHint
	if leader == "" || leader == c.addr {
		var err error
		if leader, err = c.remoteLeaderHint(ctx, r.DstDir); err != nil {
			return err
		}
	}
	resp, err := c.callLeader(ctx, leader, r.DstDir, leg)
	if err == nil {
		_, err = answer[response](resp)
	}
	return err
}

type pendingRename struct {
	dir      types.Ino
	name     string
	child    *types.Inode
	replaced *types.Inode // the entry name held before, if any
	coord    types.Ino    // coordinating directory, whose journal holds the decision
	txid     uint64
	at       time.Duration // when the prepare was accepted (env clock)
}

// undo takes the tentative insert out of ld again and puts back the entry it
// replaced.
func (pr pendingRename) undo(ld *ledDir) {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	_, _ = ld.table.Remove(pr.name) // gone already if a decision came twice
	if pr.replaced != nil {
		_ = ld.table.Insert(pr.name, pr.replaced) // the name is free: this hold freed it
	}
}

// prepareRenameLocal is the participant half of phase 1: validate, write the
// prepare record, and tentatively insert the dentry. An entry it replaces is
// treated as an unlink would treat it: its writer's cache goes to the store
// before the prepare record logs its delete, and its data lease ends when the
// rename commits.
func (c *Client) prepareRenameLocal(ctx context.Context, ld *ledDir, r PrepareRenameReq) error {
	child := r.Child
	if child == nil {
		return fmt.Errorf("core: prepare rename %q: no inode: %w", r.DstName, types.ErrIO)
	}
	ld.opMu.Lock()
	if err := ld.writable(); err != nil {
		ld.opMu.Unlock()
		return err
	}
	if err := ld.table.Dir().Access(r.Cred, types.MayWrite|types.MayExec); err != nil {
		ld.opMu.Unlock()
		return err
	}
	if err := types.ValidName(r.DstName); err != nil {
		ld.opMu.Unlock()
		return err
	}
	pr := pendingRename{
		dir: r.DstDir, name: r.DstName, child: child,
		coord: r.CoordDir, txid: r.TxID,
	}
	var dstOps []wire.Op
	existing, err := ld.target(r.DstName)
	if err != nil {
		ld.opMu.Unlock()
		return err
	}
	if existing != nil {
		// Replace target (emptiness of directories was checked upstream).
		if existing.IsDir() != child.IsDir() {
			ld.opMu.Unlock()
			if existing.IsDir() {
				return types.ErrIsDir
			}
			return types.ErrNotDir
		}
		if _, rerr := ld.table.Remove(r.DstName); rerr != nil {
			ld.opMu.Unlock()
			return rerr
		}
		pr.replaced = existing
		c.recallHolders(ctx, existing.Ino, ld.leases.takeWriter(existing.Ino))
		dstOps = append(dstOps,
			wire.Op{Kind: wire.OpDelDentry, Name: r.DstName},
			wire.Op{Kind: wire.OpDelInode, Ino: existing.Ino, Size: existing.Size})
	}
	dstOps = append(dstOps,
		wire.Op{Kind: wire.OpAddDentry, Name: r.DstName, Ino: child.Ino, FType: child.Type},
		wire.Op{Kind: wire.OpSetInode, Inode: child})
	if err := ld.table.Insert(r.DstName, child); err != nil {
		ld.opMu.Unlock()
		return err
	}
	ld.opMu.Unlock()

	if err := c.jrnl.WritePrepare(ctx, r.DstDir, r.TxID, r.CoordDir, dstOps); err != nil {
		pr.undo(ld)
		return err
	}
	pr.at = c.env.Now()
	c.pending2pc.Store(r.TxID, pr)
	return nil
}

// twopcResolver is the participant's safety net: a coordinator that crashes
// between prepare and decide leaves this client holding a tentative insert
// it cannot unilaterally resolve. Once the decision is overdue, the resolver
// consults the coordinator directory's journal (paper §III-E: the decision
// record, or its absence after the coordinator's recovery, is authoritative)
// and applies or rolls back the tentative entry.
func (c *Client) twopcResolver() {
	interval := c.opts.LeasePeriod / 2
	if interval <= 0 {
		interval = time.Second
	}
	for {
		c.env.Sleep(interval)
		if c.env.Stopped() {
			return
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return
		}
		now := c.env.Now()
		// In transaction order, not the map's: each resolution is a round
		// trip, and a seeded run must make them in the same order every time.
		var txids []uint64
		c.pending2pc.Range(func(k, _ any) bool {
			txids = append(txids, k.(uint64))
			return true
		})
		slices.Sort(txids)
		for _, txid := range txids {
			v, ok := c.pending2pc.Load(txid)
			if !ok {
				continue
			}
			pr := v.(pendingRename)
			if now-pr.at < c.opts.LeasePeriod {
				continue // give the live coordinator time to decide
			}
			ld, leads := c.ledDirFor(pr.dir)
			if !leads {
				// Our lease on the destination lapsed; the next leader's
				// recovery resolves the durable prepare record, and our
				// in-memory table is gone with the lease.
				c.pending2pc.Delete(txid)
				continue
			}
			decided, commit, err := journal.PendingDecision(c.tr, pr.coord, pr.txid)
			if err != nil || !decided {
				continue // transient store error or genuinely undecided
			}
			c.decideRenameLocal(context.Background(), ld, DecideRenameReq{TxID: pr.txid, DstDir: pr.dir, Commit: commit})
		}
	}
}

// decideRenameLocal is the participant half of phase 2. A non-nil return
// means the durable resolution did not land; the coordinator must then retain
// its decision record, or a crashed participant's recovery would flip the
// committed rename into a presumed abort — losing the file from both sides.
func (c *Client) decideRenameLocal(ctx context.Context, ld *ledDir, r DecideRenameReq) error {
	v, ok := c.pending2pc.LoadAndDelete(r.TxID)
	if !ok {
		return nil
	}
	pr := v.(pendingRename)
	switch {
	case !r.Commit:
		pr.undo(ld)
	case pr.replaced != nil:
		ld.opMu.Lock()
		c.retire(ctx, ld, pr.replaced.Ino)
		ld.opMu.Unlock()
	}
	if err := c.jrnl.ResolvePrepared(ctx, pr.dir, r.TxID, r.Commit); err != nil {
		// Dead process or store fault: put the pending entry back so the
		// resolver (or the next leader's recovery) finishes the job.
		c.pending2pc.Store(r.TxID, pr)
		return err
	}
	return nil
}
