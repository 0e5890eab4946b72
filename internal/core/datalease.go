package core

import (
	"slices"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// leaseTable is a led directory's side of its files' data leases (paper
// §III-D): per file, who holds it, who writes it, and whether a conflict has
// put it in direct mode. Its six methods are the rule's only transitions. It
// takes no env, no network and no lock of its own: callers hold the
// directory's opMu, and send the recalls it returns.
type leaseTable map[types.Ino]fileLease

// fileLease is one file's entry, which exists while the file has a holder.
type fileLease struct {
	holders map[rpc.Addr]uint64 // each holder's latest grant number; 0 for a create's and the leader's own
	writer  rpc.Addr            // the one holder caching writes, if any
	direct  bool                // a conflict: every holder does direct I/O until all have left
}

// grant lists client for ino's lease and, with write, tries to make it the
// writer. The conflict rule: a writer who finds another holder, or anyone who
// finds another client writing, puts the file in direct mode, and recall is
// who must flush and drop what they cache, sorted so that the recalls go out
// in a replayable order. direct is the mode after the grant. A grant with a
// number (seq, never 0: an open's grant to another client) supersedes the
// client's older ones, whose returns release then ignores; numbers only grow.
// Listing is idempotent: a request served twice leaves one entry.
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

// made lists holder for ino, the file its create has just made: nobody else
// can hold it, so this is the row of grant a new inode hits, with no number.
func (t leaseTable) made(ino types.Ino, holder rpc.Addr, write bool) { t.grant(ino, holder, write, 0) }

// holds reports whether client is listed for ino: a create sent again after
// its answer was lost is answered as the first time.
func (t leaseTable) holds(ino types.Ino, client rpc.Addr) bool {
	_, ok := t[ino].holders[client]
	return ok
}

// release takes client off ino's list, unless it has been listed again since
// it knew of grant: that listing's owner returns it. The last holder out ends
// the entry, and with it the write lease (a writer is the only holder) and
// direct mode.
func (t leaseTable) release(ino types.Ino, client rpc.Addr, grant uint64) {
	fl := t[ino]
	if seq, ok := fl.holders[client]; !ok || seq > grant {
		return
	}
	if delete(fl.holders, client); len(fl.holders) == 0 {
		delete(t, ino)
	}
}

// takeWriter ends ino's write lease and returns who held it, whose cache the
// caller sends to the store: the file shrinks, or its last name is going.
func (t leaseTable) takeWriter(ino types.Ino) (writer rpc.Addr) {
	if fl, ok := t[ino]; ok {
		writer, fl.writer = fl.writer, ""
		t[ino] = fl
	}
	return writer
}

// drop ends ino's entry: the file is gone, and a late return finds nothing.
func (t leaseTable) drop(ino types.Ino) { delete(t, ino) }
