package core

import (
	"cmp"
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

	cr := journal.Rename{
		TxID: c.jrnl.NewTxnID(), Dir: r.SrcDir, Peer: r.DstDir, Coord: true,
		Ops: []wire.Op{{Kind: wire.OpDelDentry, Name: r.SrcName}},
	}

	// --- Phase 1: prepare both journals (source first).
	if err := c.jrnl.WritePrepare(ctx, &cr); err != nil {
		return err
	}
	prep := PrepareRenameReq{
		TxID: cr.TxID, CoordDir: r.SrcDir, DstDir: r.DstDir, DstName: r.DstName,
		Child: moving, Cred: r.Cred,
	}
	var prepErr error
	if dstLd, ok := c.ledDirFor(r.DstDir); ok {
		prepErr = c.prepareRenameLocal(ctx, dstLd, prep)
	} else {
		prepErr = c.callParticipant(ctx, r, prep)
	}

	// --- Phase 2: decide, record the decision, apply both sides.
	cur, leads := c.ledDirFor(r.SrcDir)
	commit, write := cr.Decide(prepErr == nil, leads && cur == ld)
	if !write {
		_ = c.jrnl.ResolvePrepared(ctx, cr, false)
		return fmt.Errorf("core: rename: lease on %s lapsed before the decision: %w", r.SrcDir.Short(), types.ErrStale)
	}
	if err := c.jrnl.WriteDecision(ctx, &cr, commit); err != nil {
		// Could not persist the decision: abort locally; the participant
		// finds no trace of the rename and presumes abort.
		_ = c.jrnl.ResolvePrepared(ctx, cr, false)
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
	if err := c.jrnl.ResolvePrepared(ctx, cr, commit); err != nil {
		return err
	}
	// Tell the participant the decision; once it has resolved its prepare,
	// the decision record can be garbage-collected.
	decide := DecideRenameReq{TxID: cr.TxID, DstDir: r.DstDir, Commit: commit}
	var decideErr error
	if dstLd, ok := c.ledDirFor(r.DstDir); ok {
		decideErr = c.decideRenameLocal(ctx, dstLd, decide)
	} else {
		decideErr = c.callParticipant(ctx, r, decide)
	}
	if decideErr == nil {
		_ = c.jrnl.DeleteDecision(cr)
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

// undo takes a participant's tentative insert out of ld again and puts back
// the entry it replaced.
func undo(ld *ledDir, pr journal.Rename) {
	name, _ := pr.Entry()
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	_, _ = ld.table.Remove(name) // gone already if a decision came twice
	if pr.Replaced != nil {
		_ = ld.table.Insert(name, pr.Replaced) // the name is free: this hold freed it
	}
}

// adoptRenames holds the prepares a recovery of dir retained, as the participant
// this leader succeeds held them: each one's entry goes into ld tentatively,
// in place of the entry its name has, until the decision leg or the resolver
// resolves it.
func (c *Client) adoptRenames(ld *ledDir, pending []journal.Rename) {
	for _, pr := range pending {
		name, child := pr.Entry()
		if existing, err := ld.table.Remove(name); err == nil {
			pr.Replaced = existing
		}
		_ = ld.table.Insert(name, child)
		pr.At = c.env.Now()
		c.holdRename(ld, pr)
	}
}

// holdRename keeps pr beside ld's table until decideRenameLocal takes it.
func (c *Client) holdRename(ld *ledDir, pr journal.Rename) {
	c.mu.Lock()
	ld.renames[pr.TxID] = pr
	c.mu.Unlock()
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
	pr := journal.Rename{TxID: r.TxID, Dir: r.DstDir, Peer: r.CoordDir}
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
		pr.Replaced = existing
		c.recallHolders(ctx, existing.Ino, ld.leases.takeWriter(existing.Ino))
		pr.Ops = append(pr.Ops,
			wire.Op{Kind: wire.OpDelDentry, Name: r.DstName},
			wire.Op{Kind: wire.OpDelInode, Ino: existing.Ino, Size: existing.Size})
	}
	pr.Ops = append(pr.Ops,
		wire.Op{Kind: wire.OpAddDentry, Name: r.DstName, Ino: child.Ino, FType: child.Type},
		wire.Op{Kind: wire.OpSetInode, Inode: child})
	if err := ld.table.Insert(r.DstName, child); err != nil {
		ld.opMu.Unlock()
		return err
	}
	ld.opMu.Unlock()

	if err := c.jrnl.WritePrepare(ctx, &pr); err != nil {
		undo(ld, pr)
		return err
	}
	pr.At = c.env.Now()
	c.holdRename(ld, pr)
	return nil
}

// twopcResolver is the participant's safety net: a coordinator that crashes
// between prepare and decide leaves this client holding a tentative insert
// it cannot unilaterally resolve. Once a rename is Due, the resolver reads
// the coordinator directory's journal (paper §III-E: the decision record, or
// no trace of the rename, is authoritative) and applies or rolls back the
// tentative entry.
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
		// In transaction order, not the maps': each resolution is a round
		// trip, and a seeded run must make them in the same order every time.
		var due []journal.Rename
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		now := c.env.Now()
		for _, ld := range c.led {
			for _, pr := range ld.renames {
				if pr.Due(now, c.opts.LeasePeriod, ld.lease.Live(now)) {
					due = append(due, pr)
				}
			}
		}
		c.mu.Unlock()
		slices.SortFunc(due, func(a, b journal.Rename) int { return cmp.Compare(a.TxID, b.TxID) })
		for _, pr := range due {
			ld, leads := c.ledDirFor(pr.Dir)
			if !leads {
				continue
			}
			f, err := c.jrnl.Probe(pr)
			if err != nil || !f.Decided() {
				continue // transient store error, or the rename is not decided yet
			}
			c.decideRenameLocal(context.Background(), ld, DecideRenameReq{TxID: pr.TxID, DstDir: pr.Dir, Commit: f == journal.Commit})
		}
	}
}

// decideRenameLocal is the participant half of phase 2. A non-nil return
// means the durable resolution did not land; the coordinator must then retain
// its decision record, or a crashed participant's recovery would flip the
// committed rename into a presumed abort — losing the file from both sides.
func (c *Client) decideRenameLocal(ctx context.Context, ld *ledDir, r DecideRenameReq) error {
	c.mu.Lock()
	pr, ok := ld.renames[r.TxID]
	delete(ld.renames, r.TxID)
	c.mu.Unlock()
	if !ok {
		return nil
	}
	switch {
	case !r.Commit:
		undo(ld, pr)
	case pr.Replaced != nil:
		ld.opMu.Lock()
		c.retire(ctx, ld, pr.Replaced.Ino)
		ld.opMu.Unlock()
	}
	if err := c.jrnl.ResolvePrepared(ctx, pr, r.Commit); err != nil {
		// Dead process or store fault: hold the rename again so the resolver
		// (or the next leader's recovery) finishes the job.
		c.holdRename(ld, pr)
		return err
	}
	return nil
}
