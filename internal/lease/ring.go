package lease

import (
	"sort"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// Ring is the shard membership, fixed when the deployment starts: which lease
// managers exist and which one owns each directory. Routing is rendezvous
// (highest-random-weight) hashing — a pure function of (members, directory
// inode), byte-identical across processes, so clients and shards agree on
// ownership without exchanging a table. The zero Ring (no members) is an
// unsharded deployment with a single manager.
type Ring struct {
	Members []rpc.Addr
}

// NewRing builds a ring over the given members (sorted, deduped).
func NewRing(members ...rpc.Addr) Ring {
	out := make([]rpc.Addr, 0, len(members))
	seen := make(map[rpc.Addr]bool, len(members))
	for _, m := range members {
		if m == "" || seen[m] {
			continue
		}
		seen[m] = true
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return Ring{Members: out}
}

// RouteAddr returns the member that owns dir: the highest rendezvous score
// wins, ties broken by address order so the choice is total.
func (r Ring) RouteAddr(dir types.Ino) rpc.Addr {
	var best rpc.Addr
	var bestScore uint64
	for _, m := range r.Members {
		s := rendezvous(m, dir)
		if best == "" || s > bestScore || (s == bestScore && m > best) {
			best, bestScore = m, s
		}
	}
	return best
}

// rendezvous scores one (member, directory) pair: FNV-1a over the member's
// address bytes followed by the inode bytes. Nothing here depends on process
// state, so every client and shard computes identical routes.
func rendezvous(m rpc.Addr, dir types.Ino) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(m); i++ {
		h ^= uint64(m[i])
		h *= 1099511628211
	}
	for _, b := range dir {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
