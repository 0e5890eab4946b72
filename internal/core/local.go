package core

import (
	"context"
	"fmt"

	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Leader-side metadata operations: these run only on the client that holds
// the directory lease, mutate the metatable in memory, and log the changes
// into the per-directory journal. They are invoked both by this client's own
// public API and by the RPC service on behalf of other clients.

// lookupAt looks names[0] up in ld, the led directory dir, charging one table
// operation; the inode it returns may be the table's, so it is read-only. A
// create rides the lookup of the last name: a missing name, and the create's
// own inode (a walk sent again after its answer was lost), are localCreate's
// to rule on, which charges a table operation of its own; an exclusive create
// finds any other entry EEXIST, and any other entry is the answer, as without
// the create.
func (c *Client) lookupAt(ctx context.Context, ld *ledDir, dir types.Ino, names []string, cr *CreateReq) (*types.Inode, bool, error) {
	c.chargeMetaOp()
	child, err := ld.table.Peek(names[0])
	switch {
	case cr == nil || len(names) > 1:
	case isNotExist(err) || err == nil && child.Ino == cr.NewIno:
		return c.localCreate(ctx, ld, dir, names[0], *cr)
	case err == nil && cr.Exclusive:
		return nil, false, fmt.Errorf("core: create %q: %w", names[0], types.ErrExist)
	}
	return child, false, err
}

// localCreate creates name, a file, directory or symlink, in a led
// directory. newIno is allocated by the caller so that remote creates keep
// inode allocation on the requesting client. leased reports that the inode is
// new and req.Holder was listed for its data lease in the same lock hold.
func (c *Client) localCreate(ctx context.Context, ld *ledDir, dir types.Ino, name string, req CreateReq) (*types.Inode, bool, error) {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	c.chargeMetaOp()
	c.stats.LocalMetaOps.Add(1)
	if err := ld.writable(); err != nil {
		return nil, false, err
	}
	if err := types.ValidName(name); err != nil {
		return nil, false, err
	}
	dirNode := ld.table.DirInode()
	if err := dirNode.Access(req.Cred, types.MayWrite|types.MayExec); err != nil {
		return nil, false, err
	}
	now := c.env.Now()

	existing, err := ld.target(name)
	if err != nil {
		return nil, false, err
	}
	if existing != nil {
		if existing.Ino == req.NewIno {
			// This very create, sent again after its answer was lost.
			return existing, ld.leases.holds(existing.Ino, req.Holder), nil
		}
		if req.Exclusive {
			return nil, false, fmt.Errorf("core: create %q: %w", name, types.ErrExist)
		}
		if existing.IsDir() {
			return nil, false, fmt.Errorf("core: create %q: %w", name, types.ErrIsDir)
		}
		if req.Type == types.TypeDir {
			return nil, false, fmt.Errorf("core: mkdir %q: %w", name, types.ErrExist)
		}
		// O_CREAT on an existing file: return it (the open path truncates).
		return existing, false, nil
	}

	child := &types.Inode{
		Ino:   req.NewIno,
		Type:  req.Type,
		Mode:  req.Mode & 07777,
		Uid:   req.Cred.Uid,
		Gid:   req.Cred.Gid,
		Nlink: 1,
		Mtime: now, Ctime: now, Atime: now,
		Target: req.Target,
	}
	if req.Type == types.TypeDir {
		child.Nlink = 2
	}
	if err := ld.table.Insert(name, child); err != nil {
		return nil, false, err
	}
	dirNode.Mtime, dirNode.Ctime = now, now
	ld.table.SetDirInode(dirNode)
	if req.Holder != "" {
		ld.leases.made(child.Ino, req.Holder, req.Write)
	}

	if req.Type == types.TypeDir {
		// Materialize the new directory's inode object immediately so any
		// client can acquire its lease and build a metatable before the
		// parent journal checkpoints.
		if err := c.tr.SaveInode(child); err != nil {
			return nil, false, fmt.Errorf("core: mkdir materialize: %w", err)
		}
	}
	c.jrnl.Log(ctx, dir, []wire.Op{
		{Kind: wire.OpSetInode, Inode: child},
		{Kind: wire.OpAddDentry, Name: name, Ino: child.Ino, FType: child.Type},
		{Kind: wire.OpSetInode, Inode: dirNode},
	})
	return child, req.Holder != "", nil
}

// localUnlink removes a name from a led directory. For rmdir the caller has
// already verified the target directory is empty.
func (c *Client) localUnlink(ctx context.Context, ld *ledDir, dir types.Ino, req UnlinkReq) error {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	c.chargeMetaOp()
	c.stats.LocalMetaOps.Add(1)
	if err := ld.writable(); err != nil {
		return err
	}
	dirNode := ld.table.DirInode()
	if err := dirNode.Access(req.Cred, types.MayWrite|types.MayExec); err != nil {
		return err
	}
	victim, err := ld.table.Peek(req.Name)
	if err != nil {
		return err
	}
	if req.Rmdir {
		if !victim.IsDir() {
			return fmt.Errorf("core: rmdir %q: %w", req.Name, types.ErrNotDir)
		}
	} else if victim.IsDir() {
		return fmt.Errorf("core: unlink %q: %w", req.Name, types.ErrIsDir)
	}
	// Sticky-bit directories: only the owner of the file or the directory
	// may remove (POSIX).
	if dirNode.Mode&types.ModeSticky != 0 && req.Cred.Uid != 0 &&
		req.Cred.Uid != victim.Uid && req.Cred.Uid != dirNode.Uid {
		return fmt.Errorf("core: unlink %q: sticky: %w", req.Name, types.ErrPerm)
	}
	if _, err := ld.table.Remove(req.Name); err != nil {
		return err
	}
	now := c.env.Now()
	dirNode.Mtime, dirNode.Ctime = now, now
	ld.table.SetDirInode(dirNode)
	c.retire(ctx, ld, victim.Ino)
	c.jrnl.Log(ctx, dir, []wire.Op{
		{Kind: wire.OpDelDentry, Name: req.Name},
		{Kind: wire.OpDelInode, Ino: victim.Ino, Size: victim.Size, FType: victim.Type},
		{Kind: wire.OpSetInode, Inode: dirNode},
	})
	return nil
}

// retire ends the data lease of ino, whose last name is going (an unlink, or
// a rename over it). What its writer caches goes to the store first: a PUT
// that landed after the checkpoint's delete would leak the object.
func (c *Client) retire(ctx context.Context, ld *ledDir, ino types.Ino) {
	c.recallHolders(ctx, ino, ld.leases.takeWriter(ino))
	c.data.Invalidate(ino)
	ld.leases.drop(ino)
}

// localSetAttr applies an attribute patch to name (or the directory itself)
// in a led directory, enforcing POSIX ownership rules. A patch a handle's
// write-back sends (req.Ino) goes to that inode or nowhere: the name may lead
// to another file by now.
func (c *Client) localSetAttr(ctx context.Context, ld *ledDir, dir types.Ino, req SetAttrReq) (*types.Inode, error) {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	c.chargeMetaOp()
	c.stats.LocalMetaOps.Add(1)
	if err := ld.writable(); err != nil {
		return nil, err
	}
	var node *types.Inode
	switch {
	case !req.Ino.IsNil():
		cur, err := ld.table.Child(req.Ino)
		if err != nil {
			return nil, fmt.Errorf("core: setattr %q: %w", req.Name, err)
		}
		node = cur.Clone()
	case req.Name == "":
		node = ld.table.DirInode()
	default:
		var err error
		if _, node, err = ld.table.Lookup(req.Name); err != nil {
			return nil, err
		}
	}
	cred, p := req.Cred, req.Patch
	if req.Ino.IsNil() {
		isOwner := cred.Uid == 0 || cred.Uid == node.Uid
		if (p.SetMode || p.SetTimes || p.SetACL) && !isOwner {
			return nil, fmt.Errorf("core: setattr: %w", types.ErrPerm)
		}
		if p.SetOwner && cred.Uid != 0 {
			// Only root may change ownership (chown semantics).
			if p.Uid != node.Uid || !isOwner || !cred.InGroup(p.Gid) {
				return nil, fmt.Errorf("core: chown: %w", types.ErrPerm)
			}
		}
		if p.SetSize {
			if node.IsDir() {
				return nil, fmt.Errorf("core: truncate: %w", types.ErrIsDir)
			}
			if err := node.Access(cred, types.MayWrite); err != nil {
				return nil, err
			}
		}
	}
	now := c.env.Now()
	oldSize := node.Size
	if p.SetMode {
		node.Mode = p.Mode & 07777
	}
	if p.SetOwner {
		node.Uid, node.Gid = p.Uid, p.Gid
	}
	if p.SetSize {
		node.Size = p.Size
	}
	if p.SetTimes {
		node.Mtime = p.Mtime
	} else {
		node.Mtime = now
	}
	if p.SetACL {
		acl := p.ACL.Clone()
		if err := acl.Validate(); err != nil {
			return nil, err
		}
		acl.Normalize()
		node.ACL = acl
	}
	node.Ctime = now

	if req.Name == "" {
		ld.table.SetDirInode(node)
	} else if err := ld.table.UpdateChild(node); err != nil {
		return nil, err
	}
	ops := []wire.Op{{Kind: wire.OpSetInode, Inode: node}}
	c.jrnl.Log(ctx, dir, ops)
	if p.SetSize && p.Size < oldSize {
		// Shrinking: recall any outstanding write lease so buffered data is
		// flushed (or discarded consistently) before the dead chunks go.
		c.recallHolders(ctx, node.Ino, ld.leases.takeWriter(node.Ino))
		c.data.Invalidate(node.Ino)
		if err := c.tr.Truncate(node.Ino, oldSize, p.Size); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// localReaddir lists a led directory.
func (c *Client) localReaddir(ld *ledDir, req ReaddirReq) ([]wire.Dentry, error) {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	c.chargeMetaOp()
	c.stats.LocalMetaOps.Add(1)
	if err := ld.table.Dir().Access(req.Cred, types.MayRead); err != nil {
		return nil, err
	}
	return ld.table.List(), nil
}

// localRenameSameDir renames within one led directory: a single journaled
// compound transaction, no 2PC needed.
func (c *Client) localRenameSameDir(ctx context.Context, ld *ledDir, dir types.Ino, srcName, dstName string, cred types.Cred) error {
	ld.opMu.Lock()
	defer ld.opMu.Unlock()
	c.chargeMetaOp()
	c.stats.LocalMetaOps.Add(1)
	if err := ld.writable(); err != nil {
		return err
	}
	if err := types.ValidName(dstName); err != nil {
		return err
	}
	dirNode := ld.table.DirInode()
	if err := dirNode.Access(cred, types.MayWrite|types.MayExec); err != nil {
		return err
	}
	moving, err := ld.table.Peek(srcName)
	if err != nil {
		return err
	}
	if srcName == dstName {
		return nil
	}
	ops := []wire.Op{{Kind: wire.OpDelDentry, Name: srcName}}
	existing, err := ld.target(dstName)
	if err != nil {
		return err
	}
	if existing != nil {
		// Destination exists: POSIX rename replaces it (directories only if
		// empty — checked by the caller).
		if existing.IsDir() != moving.IsDir() {
			if existing.IsDir() {
				return fmt.Errorf("core: rename to %q: %w", dstName, types.ErrIsDir)
			}
			return fmt.Errorf("core: rename to %q: %w", dstName, types.ErrNotDir)
		}
		if _, err := ld.table.Remove(dstName); err != nil {
			return err
		}
		c.retire(ctx, ld, existing.Ino)
		ops = append(ops,
			wire.Op{Kind: wire.OpDelDentry, Name: dstName},
			wire.Op{Kind: wire.OpDelInode, Ino: existing.Ino, Size: existing.Size})
	}
	if _, err := ld.table.Remove(srcName); err != nil {
		return err
	}
	if err := ld.table.Insert(dstName, moving); err != nil {
		return err
	}
	now := c.env.Now()
	dirNode.Mtime, dirNode.Ctime = now, now
	ld.table.SetDirInode(dirNode)
	ops = append(ops,
		wire.Op{Kind: wire.OpAddDentry, Name: dstName, Ino: moving.Ino, FType: moving.Type},
		wire.Op{Kind: wire.OpSetInode, Inode: dirNode})
	c.jrnl.Log(ctx, dir, ops)
	return nil
}
