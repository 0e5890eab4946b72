// Package core implements the ArkFS client: the near-POSIX file-system API
// with client-driven metadata service (paper §III). Each client acquires
// per-directory leases, builds metadata tables for the directories it leads,
// journals its mutations per directory, serves forwarded operations from
// other clients over RPC, and caches file data with read-ahead in a
// write-back object cache.
package core

import (
	"encoding/gob"
	"fmt"
	"time"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Client-to-leader RPC messages. A client that is not the leader of a
// directory forwards its operations to the leader with these (paper §III-B,
// step 5 of Figure 3). Errors travel as Errno strings and are rehydrated
// with types-level errors on the caller side.

// WalkReq resolves Names[0] inside Dir, which the receiver leads, and then
// each following name inside the directory the one before it named, for as
// long as the receiver leads that directory too: one message per leader on a
// path, not one per component. With no Names it resolves nothing and is how
// a client fetches a directory's own inode (WantDirInode).
type WalkReq struct {
	Dir   types.Ino
	Names []string
	Cred  types.Cred
	// WantDirInode additionally returns Dir's own inode, which the caller
	// caches in permission-caching mode.
	WantDirInode bool
	// Holder (set by Open) makes the walk the open as well: if the last of
	// Names is a regular file in a directory the receiver leads and Cred may
	// open it (for writing, with Write), Holder is listed for its data lease
	// (§III-D).
	Holder rpc.Addr
	Write  bool
	// Create (set by Open with O_CREAT, Mkdir and Symlink) makes the walk the
	// create as well: the leader of the last name's directory serves that name
	// with it (lookupAt). A walk that stops before the last name leaves it for
	// the next leader, whom the walker sends it with the names that remain.
	Create *CreateReq
}

// WalkResp answers WalkReq with the inodes of the names resolved, in order.
// The receiver stops after a symlink or non-directory, at a directory it
// does not lead, or at the first error, which belongs to Names[len(Inodes)].
// Its inodes are the leader's own, read-only: shared in process, copied field
// for field by gob over the TCP bridge (DESIGN.md §7.1).
type WalkResp struct {
	Err      string
	DirInode *types.Inode   // Dir's own inode (if requested)
	Inodes   []*types.Inode // the inode of each resolved name
	// Leased: Holder is listed for the last inode, as the table has it after
	// the grant, under number Grant and in direct mode if Direct; if that is
	// Create.NewIno the walk made it, and listed Create.Holder with no number.
	Leased bool
	Direct bool
	Grant  uint64
}

// CreateReq is a create of a file, directory or symlink, riding the walk to
// its name (WalkReq.Create) to the leader of the directory it is made in.
type CreateReq struct {
	Type      types.FileType
	Mode      types.Mode
	Target    string // symlink target
	Cred      types.Cred
	NewIno    types.Ino // inode number allocated by the caller
	Exclusive bool      // O_EXCL: fail on existing entry
	// Holder (set by Open) gets the new inode's data lease, with Write as writer (§III-D).
	Holder rpc.Addr
	Write  bool
}

// UnlinkReq removes a name (and, for Rmdir, requires an empty directory).
type UnlinkReq struct {
	Dir   types.Ino
	Name  string
	Rmdir bool
	Cred  types.Cred
}

// UnlinkResp answers UnlinkReq.
type UnlinkResp struct {
	Err string
}

// SetAttrReq updates child inode attributes in a led directory.
type SetAttrReq struct {
	Dir   types.Ino
	Name  string // empty: the directory itself
	Cred  types.Cred
	Patch AttrPatch
	// Ino marks a size/mtime update generated by write-back (fsync or close of
	// written data) and names the inode it belongs to: ownership checks do not
	// apply, exactly as write(2) updates mtime without owning the file, and
	// the patch applies to that child only, wherever Name now leads.
	Ino types.Ino
}

// AttrPatch selects which attributes to change.
type AttrPatch struct {
	SetMode  bool
	Mode     types.Mode
	SetOwner bool
	Uid, Gid uint32
	SetSize  bool
	Size     int64
	SetTimes bool
	Mtime    time.Duration
	SetACL   bool
	ACL      types.ACL
}

// SetAttrResp answers SetAttrReq with the leader's new inode: read-only.
type SetAttrResp struct {
	Err   string
	Inode *types.Inode
}

// ReaddirReq lists a led directory.
type ReaddirReq struct {
	Dir  types.Ino
	Cred types.Cred
}

// ReaddirResp answers ReaddirReq.
type ReaddirResp struct {
	Err     string
	Entries []wire.Dentry
}

// RenameReq forwards a whole rename to the source directory's leader, which
// coordinates the two-phase commit.
type RenameReq struct {
	SrcDir  types.Ino
	SrcName string
	DstDir  types.Ino
	DstName string
	Cred    types.Cred
	// DstLeaderHint carries the caller's belief about who leads DstDir so
	// the coordinator can reach the participant without a manager round trip.
	DstLeaderHint rpc.Addr
}

// RenameResp answers RenameReq.
type RenameResp struct {
	Err string
}

// PrepareRenameReq asks the destination directory's leader (2PC participant)
// to validate and prepare the insertion half of a rename.
type PrepareRenameReq struct {
	TxID     uint64
	CoordDir types.Ino // coordinator's directory (journal holding the decision)
	DstDir   types.Ino
	DstName  string
	Child    *types.Inode // the inode being moved, as the source's table stores it: read-only
	Cred     types.Cred
}

// PrepareRenameResp answers PrepareRenameReq.
type PrepareRenameResp struct {
	Err string // empty = prepared
}

// DecideRenameReq delivers the coordinator's 2PC decision to the participant.
type DecideRenameReq struct {
	TxID   uint64
	DstDir types.Ino
	Commit bool
}

// DecideRenameResp acknowledges DecideRenameReq.
type DecideRenameResp struct {
	Err string
}

// WriteLeaseReq upgrades the caller's read lease to an exclusive write lease.
type WriteLeaseReq struct {
	Dir    types.Ino
	Ino    types.Ino
	Client rpc.Addr
}

// WriteLeaseResp answers WriteLeaseReq; with Direct the file is in direct
// mode and nobody caches it.
type WriteLeaseResp struct {
	Err    string
	Direct bool
}

// CloseFileReq gives back every data lease the caller has queued for this
// leader since its last one, in the order it decided them. The leader applies
// each item on its own, and drops one whose directory it no longer leads.
type CloseFileReq struct {
	Client rpc.Addr
	Files  []ClosedFile
}

// ClosedFile releases Client's lease on a child file of Dir, listed under
// Grant at most (leaseTable.release). Below names the way from Dir down to
// the file's directory for a create whose walk got no answer.
type ClosedFile struct {
	Dir   types.Ino
	Below []string
	Ino   types.Ino
	Grant uint64
}

// CloseFileResp answers CloseFileReq.
type CloseFileResp struct {
	Err string
}

// FlushCacheReq recalls a data-lease holder (leaseTable.grant, takeWriter): it
// switches the file to direct I/O, flushes and invalidates its cache.
type FlushCacheReq struct {
	Ino types.Ino
}

// FlushCacheResp acknowledges FlushCacheReq.
type FlushCacheResp struct {
	Err string
}

// ErrResp answers any request the receiver refuses before running it: ESTALE
// when it does not lead the directory, EINVAL for a type it does not know.
type ErrResp struct {
	Err string
}

// wireMessages is every type that crosses the client-to-leader wire. A new
// forwarded message joins this list, describe (requests) or the errno
// methods (responses), and dispatch; TestMessageTable fails if it skips one.
var wireMessages = []any{
	WalkReq{}, WalkResp{}, UnlinkReq{}, UnlinkResp{},
	SetAttrReq{}, SetAttrResp{}, ReaddirReq{}, ReaddirResp{},
	RenameReq{}, RenameResp{}, PrepareRenameReq{}, PrepareRenameResp{},
	DecideRenameReq{}, DecideRenameResp{},
	WriteLeaseReq{}, WriteLeaseResp{}, CloseFileReq{}, CloseFileResp{},
	FlushCacheReq{}, FlushCacheResp{}, ErrResp{},
}

// StatReq and StatResp are no messages of the protocol, which fetches a
// directory's own inode with a zero-name WalkReq: they name two small
// registered types for bench/probes.go, which times a bare round trip of the
// fabric, in process and over TCP, with them.
type (
	StatReq  = UnlinkReq
	StatResp = UnlinkResp
)

func init() {
	for _, m := range wireMessages {
		gob.Register(m)
	}
}

// msgInfo is everything the forwarding and serving paths need to know about
// one request type, declared once in describe.
type msgInfo struct {
	span string    // server-side span name
	dir  types.Ino // directory whose leader serves the request; zero if it names none, or one per item
	// exempt marks protocol-internal messages that bypass admission: a 2PC
	// decision, a cache-flush broadcast or a lease release is the cleanup
	// half of work already admitted, and refusing it would turn overload
	// into stuck transactions.
	exempt bool
	// namespace marks the operations core.meta.remote counts when forwarded;
	// the data-lease traffic and the 2PC legs are not in it.
	namespace bool
}

// describe is the message table: the one place that enumerates the forwarded
// requests. ok is false for a type the protocol does not know.
func describe(req any) (m msgInfo, ok bool) {
	switch r := req.(type) {
	case WalkReq:
		m := msgInfo{span: "serve.walk", dir: r.Dir, namespace: true}
		if r.Create != nil {
			m.span = "serve.create" // it may make the file
		}
		return m, true
	case UnlinkReq:
		return msgInfo{span: "serve.unlink", dir: r.Dir, namespace: true}, true
	case SetAttrReq:
		return msgInfo{span: "serve.setattr", dir: r.Dir, namespace: true}, true
	case ReaddirReq:
		return msgInfo{span: "serve.readdir", dir: r.Dir, namespace: true}, true
	case RenameReq:
		return msgInfo{span: "serve.rename", dir: r.SrcDir, namespace: true}, true
	case PrepareRenameReq:
		return msgInfo{span: "serve.rename.prepare", dir: r.DstDir}, true
	case DecideRenameReq:
		return msgInfo{span: "serve.rename.decide", dir: r.DstDir, exempt: true}, true
	case WriteLeaseReq:
		return msgInfo{span: "serve.writelease", dir: r.Dir}, true
	case CloseFileReq:
		return msgInfo{span: "serve.close", exempt: true}, true
	case FlushCacheReq:
		return msgInfo{span: "serve.flushcache", exempt: true}, true
	default:
		return msgInfo{}, false
	}
}

// response is what every answer to a forwarded request exposes: its errno
// string ("" on success), which the caller rehydrates with errFromString.
type response interface{ errno() string }

func (r WalkResp) errno() string          { return r.Err }
func (r UnlinkResp) errno() string        { return r.Err }
func (r SetAttrResp) errno() string       { return r.Err }
func (r ReaddirResp) errno() string       { return r.Err }
func (r RenameResp) errno() string        { return r.Err }
func (r PrepareRenameResp) errno() string { return r.Err }
func (r DecideRenameResp) errno() string  { return r.Err }
func (r WriteLeaseResp) errno() string    { return r.Err }
func (r CloseFileResp) errno() string     { return r.Err }
func (r FlushCacheResp) errno() string    { return r.Err }
func (r ErrResp) errno() string           { return r.Err }

// answer splits a leader's reply into the typed response the caller expects
// and the error it carries (nil on success). An ErrResp has no typed half.
func answer[R response](resp any) (R, error) {
	var none R
	switch r := resp.(type) {
	case R:
		return r, errFromString(r.errno())
	case ErrResp:
		return none, errFromString(r.Err)
	default:
		return none, fmt.Errorf("core: leader answered with %T: %w", resp, types.ErrIO)
	}
}

// errString converts an error to its wire form.
func errString(err error) string {
	if err == nil {
		return ""
	}
	return types.Errno(err)
}

// errFromString rehydrates a wire error string into the typed sentinel, so
// errors.Is gives the same answer on a redirected client as on the leader.
// The full name↔sentinel table lives in types (FromErrno) to keep the two
// directions of the round trip in one place.
func errFromString(s string) error {
	if s == "" {
		return nil
	}
	return types.FromErrno(s)
}
