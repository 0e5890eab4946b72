// Package lease implements ArkFS's directory lease protocol (paper §III-B).
//
// A single lightweight lease manager issues per-directory leases
// first-come-first-served. The holder — the *directory leader* — is the only
// client allowed to modify that directory's metadata and to manage data
// read/write leases for its children. Other clients are redirected to the
// leader and forward their operations to it.
//
// The manager additionally:
//   - supports extension, remembering the previous leader so that an unbroken
//     re-acquire can skip reloading the metadata table;
//   - gates recovery: when a lease expires without a clean release, the next
//     acquirer is told to run journal recovery, and everyone else waits;
//   - quiesces for one lease period after its own restart so that no two
//     clients can ever hold the same directory simultaneously.
//
// A grant is a duration, never an instant: processes' clocks have different
// zeros. The manager counts the period from its answer; the holder counts it
// from its own send of the request, so the holder's lease ends first. A Wait
// names a delay counted from the answer, and a handoff the time each lease
// has left. A restarted manager trusts none of its predecessor's instants: it
// counts every resumed lease from its own start. Both sides of the rule are
// in rule.go.
package lease

import (
	"encoding/gob"
	"time"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// DefaultPeriod is the paper's default lease duration (5 seconds).
const DefaultPeriod = 5 * time.Second

// AcquireReq asks for (or extends) the lease of Dir on behalf of Client.
type AcquireReq struct {
	Dir    types.Ino
	Client rpc.Addr
}

// AcquireResp is the manager's answer to an AcquireReq.
type AcquireResp struct {
	// Granted: the caller is now the directory leader for Period.
	Granted bool
	// LeaseID is a fencing token, unique per grant chain; extensions keep it.
	LeaseID uint64
	// Period is how long the grant lasts, counted from the manager's answer.
	// The holder counts it from its own send of the request, which comes
	// first, so no instant of either clock crosses the wire.
	Period time.Duration
	// SameLeader: the caller held this directory last and nobody else has
	// touched it since, so its in-memory metatable is still valid.
	SameLeader bool
	// NeedRecovery: the previous leader crashed (lease lapsed without a
	// clean release); the caller must run journal recovery before serving.
	NeedRecovery bool
	// Redirect: the lease is held by Leader; forward operations there.
	Redirect bool
	Leader   rpc.Addr
	// Wait: the directory is under recovery or the manager is quiescing
	// after a restart; retry RetryAfter after the answer arrives.
	Wait       bool
	RetryAfter time.Duration
	// Quiesce: the Wait is the manager's own post-restart quiesce window,
	// not contention on this directory. Clients should not charge it
	// against their per-directory acquire retries — RetryAfter is a firm
	// "come back then" delay, and every directory is affected equally.
	Quiesce bool
	// StaleRing: the caller's ring epoch is behind (or it asked a shard that
	// no longer owns Dir); Ring is the shard's current membership. The client
	// must update its router and retry at the owner — an EAGAIN-style
	// redirect, never a wrong-shard grant.
	StaleRing bool
	Ring      Ring
}

// ReleaseReq gives up a lease. Clean indicates all metadata was flushed.
type ReleaseReq struct {
	Dir     types.Ino
	LeaseID uint64
	Client  rpc.Addr
	Clean   bool
}

// ReleaseResp acknowledges a ReleaseReq.
type ReleaseResp struct {
	OK bool
	// StaleRing: Dir moved to another shard (see AcquireResp.StaleRing).
	StaleRing bool
	Ring      Ring
}

// RecoveryDoneReq reports that the caller finished journal recovery for Dir;
// the manager renews the caller's lease and unblocks waiters.
type RecoveryDoneReq struct {
	Dir     types.Ino
	LeaseID uint64
	Client  rpc.Addr
}

// RecoveryDoneResp carries the renewed lease: Period as in AcquireResp,
// counted from the RecoveryDoneReq's send.
type RecoveryDoneResp struct {
	OK      bool
	Period  time.Duration
	LeaseID uint64
	// StaleRing: Dir moved to another shard (see AcquireResp.StaleRing).
	StaleRing bool
	Ring      Ring
}

// DirGrant is one directory's lease chain: the manager's record of it (see
// grants), and what a handoff ships to the shard that gains the directory.
// In a table Expiry is an instant on that manager's clock; on the wire it is
// the time left at the send, which the gainer counts from its receipt.
type DirGrant struct {
	Dir        types.Ino
	Holder     rpc.Addr
	LeaseID    uint64
	Expiry     time.Duration
	Clean      bool
	PrevHolder rpc.Addr
	Recovering bool
	RecoverID  uint64
}

// HandoffReq transfers grant state from a losing shard to the gaining shard
// during a resharding: every DirGrant routes to the receiver under the ring
// at Epoch. Directories whose transfer fails are the only ones that pay the
// grace-period stall at the new owner.
type HandoffReq struct {
	Epoch  Epoch
	From   rpc.Addr
	Grants []DirGrant
}

// HandoffResp acknowledges a HandoffReq.
type HandoffResp struct {
	OK       bool
	Accepted int
}

func init() {
	// Registered for the TCP transport used by the live tools.
	gob.Register(AcquireReq{})
	gob.Register(AcquireResp{})
	gob.Register(ReleaseReq{})
	gob.Register(ReleaseResp{})
	gob.Register(RecoveryDoneReq{})
	gob.Register(RecoveryDoneResp{})
	gob.Register(HandoffReq{})
	gob.Register(HandoffResp{})
	gob.Register(Ring{})
}
