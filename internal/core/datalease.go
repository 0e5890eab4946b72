package core

import (
	"slices"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// leaseTable is a led directory's side of its files' data leases (paper
// §III-D). Its six methods are the rule's only transitions. It takes no env,
// no network and no lock of its own: callers hold the directory's opMu, and
// send the recalls it returns.
type leaseTable map[types.Ino]fileLease

// fileLease is one file's entry, which exists while the file has a holder.
type fileLease struct {
	holders map[rpc.Addr]uint64 // each holder's latest grant number; 0 for a create's and the leader's own
	writer  rpc.Addr            // the one holder caching writes, if any
	direct  bool                // a conflict: every holder does direct I/O until all have left
}

// grant lists client for ino's lease and, with write, tries to make it the
// writer. A writer who finds another holder, or anyone who finds another
// client writing, puts the file in direct mode, and recall (sorted, for
// replay) must flush and drop what they cache. A numbered grant (seq > 0: an
// open's grant to another client) supersedes the client's older ones, whose
// returns release then ignores. A request served twice leaves one entry.
func (t leaseTable) grant(ino types.Ino, client rpc.Addr, write bool, seq uint64) (direct bool, recall []rpc.Addr) {
	fl := t[ino]
	if fl.holders == nil {
		fl.holders = make(map[rpc.Addr]uint64, 1)
	}
	fl.holders[client] = max(fl.holders[client], seq)
	switch {
	case fl.direct:
	case write && len(fl.holders) == 1:
		fl.writer = client
	case write:
		for h := range fl.holders {
			recall = append(recall, h)
		}
		slices.Sort(recall)
	case fl.writer != "" && fl.writer != client:
		recall = append(recall, fl.writer)
	}
	if recall != nil {
		fl.direct, fl.writer = true, ""
	}
	t[ino] = fl
	return fl.direct, recall
}

// made lists holder for ino, the file its create has just made: grant's row
// for a new inode, with no number.
func (t leaseTable) made(ino types.Ino, holder rpc.Addr, write bool) { t.grant(ino, holder, write, 0) }

// holds reports whether client is listed for ino: a create sent again after
// its answer was lost is answered as the first time.
func (t leaseTable) holds(ino types.Ino, client rpc.Addr) bool {
	_, ok := t[ino].holders[client]
	return ok
}

// release takes client off ino's list, unless it has been listed again since
// it knew of grant: that listing's owner returns it. The last holder out ends
// the entry, the write lease and direct mode with it.
func (t leaseTable) release(ino types.Ino, client rpc.Addr, grant uint64) {
	fl := t[ino]
	if seq, ok := fl.holders[client]; !ok || seq > grant {
		return
	}
	if delete(fl.holders, client); len(fl.holders) == 0 {
		delete(t, ino)
	}
}

// takeWriter ends ino's write lease and returns who held it, to recall: the
// file shrinks, or its last name is going. The file stays direct while the
// ex-writer holds it, since its writes may reach the store at any time.
func (t leaseTable) takeWriter(ino types.Ino) (recall []rpc.Addr) {
	fl := t[ino]
	if fl.writer == "" {
		return nil
	}
	recall = []rpc.Addr{fl.writer}
	fl.writer, fl.direct = "", true
	t[ino] = fl
	return recall
}

// drop ends ino's entry: the file is gone, and a late return finds nothing.
func (t leaseTable) drop(ino types.Ino) { delete(t, ino) }

// leaseHolder is a client's side of its files' data leases, per file in a
// heldLease in its record. Its methods are the rule's only transitions. It
// takes no env, no network and no lock of its own: callers hold Client.mu,
// and the record's mu too where the mode changes (the data path's reading).
type leaseHolder struct {
	recalls  uint64              // recalls run
	returns  int                 // returns in flight
	returned map[rpc.Addr]uint64 // per leader, the highest number given back
}

// heldLease is one file's entry.
type heldLease struct {
	refs      int      // live handles and Opens in flight
	listed    bool     // a leader may list this client
	leader    rpc.Addr // who listed it last ("": itself)
	grant     uint64   // the highest number leader listed it under
	returning bool     // the return is decided: the entry is dead
	direct    bool     // a conflict: no caching, direct object I/O
	write     bool     // holds the exclusive write lease
}

// dataGrant is one listing of this client, as an answer reports it.
type dataGrant struct {
	via    types.Ino // the directory whose route the message took: its leader listed, this client if it has none
	seq    uint64    // that leader's number for the listing
	direct bool      // the file is in direct mode
	write  bool      // a create or a write upgrade made this client the writer
}

// leaseReturn is a return release decided: to a remote leader, or to self.
type leaseReturn struct {
	to    rpc.Addr
	self  bool
	grant uint64
}

// open takes a reference on e unless its return is decided: the caller waits
// for it, so that no walk overtakes the CloseFileReq and unlists a live holder.
func (h *leaseHolder) open(e *heldLease) bool {
	if !e.returning {
		e.refs++
	}
	return !e.returning
}

// mark is the recall count that adopt compares a walk's grant against.
func (h *leaseHolder) mark() uint64 { return h.recalls }

// adopt makes e the owner of g, leader's listing (the answer of a walk, a
// create or a write upgrade), whatever becomes of the Open. It believes g,
// taking on its mode, if e was there before the request left (since nil), or
// if no recall ran since *since (it found no entry to flip) and g is newer
// than what a return that may reach leader after g gave back.
func (h *leaseHolder) adopt(e *heldLease, leader rpc.Addr, g dataGrant, since *uint64) (believed bool) {
	if leader != e.leader {
		e.leader, e.grant = leader, 0 // another leader's numbers
	}
	e.grant, e.listed = max(e.grant, g.seq), true
	if believed = since == nil || *since == h.recalls && g.seq > h.returned[leader]; believed {
		e.direct = e.direct || g.direct
		e.write = e.write || g.write && !e.direct
	}
	return believed
}

// mode is what the data path reads: direct I/O, and the write lease.
func (e *heldLease) mode() (direct, write bool) { return e.direct, e.write }

// close drops a handle's reference and reports whether it was the last.
func (h *leaseHolder) close(e *heldLease) (last bool) {
	e.refs--
	return e.refs == 0
}

// release decides e's return if e has no reference, no return decided and no
// dirty bytes: a handle that came since the last close keeps e.
func (h *leaseHolder) release(e *heldLease, dirty, leads bool) (back leaseReturn, ok bool) {
	if e.refs > 0 || e.returning || dirty {
		return back, false
	}
	e.returning = true
	switch {
	case !e.listed:
	case leads:
		back = leaseReturn{self: true, grant: e.grant}
	case e.leader != "":
		if h.returned == nil {
			h.returned = make(map[rpc.Addr]uint64)
		}
		h.returns++
		h.returned[e.leader] = max(h.returned[e.leader], e.grant)
		back = leaseReturn{to: e.leader, grant: e.grant}
	}
	return back, true
}

// answered ends a remote return and reports whether none is left in flight.
func (h *leaseHolder) answered() (quiet bool) {
	h.returns--
	return h.returns == 0
}

// quiet reports that no return is in flight.
func (h *leaseHolder) quiet() bool { return h.returns == 0 }

// recall counts a recall (also of a writer whose lease the leader took, on a
// truncate or move) and flips e, if any, to direct I/O.
func (h *leaseHolder) recall(e *heldLease) {
	h.recalls++
	if e != nil {
		e.direct, e.write = true, false
	}
}
