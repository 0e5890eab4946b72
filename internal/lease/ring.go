package lease

import (
	"fmt"
	"sort"
	"sync"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// Epoch versions the cluster's shard membership. Every membership change
// bumps it; epoch 0 means "no ring" (a single unsharded manager). Clients
// cache the ring and stamp every lease RPC with their epoch, so a shard can
// tell a stale client from a current one and answer with a redirect carrying
// the new ring instead of a wrong-shard grant.
type Epoch uint64

// Ring is the versioned shard membership: which lease managers exist and
// which one owns each directory. Routing is rendezvous (highest-random-weight)
// hashing — a pure function of (members, directory inode), byte-identical
// across processes, and minimal-movement: adding or removing one member only
// reassigns the directories that member gains or loses.
type Ring struct {
	Epoch   Epoch
	Members []rpc.Addr
}

// NewRing builds an epoch-1 ring over the given members (sorted, deduped).
func NewRing(members ...rpc.Addr) Ring {
	return Ring{Epoch: 1, Members: normalize(members)}
}

func normalize(members []rpc.Addr) []rpc.Addr {
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
	return out
}

// IsZero reports the absence of a ring (unsharded deployment).
func (r Ring) IsZero() bool { return r.Epoch == 0 }

// Contains reports membership.
func (r Ring) Contains(a rpc.Addr) bool {
	for _, m := range r.Members {
		if m == a {
			return true
		}
	}
	return false
}

// With returns the next-epoch ring including a.
func (r Ring) With(a rpc.Addr) Ring {
	return Ring{Epoch: r.Epoch + 1, Members: normalize(append(append([]rpc.Addr{}, r.Members...), a))}
}

// Without returns the next-epoch ring excluding a.
func (r Ring) Without(a rpc.Addr) Ring {
	out := make([]rpc.Addr, 0, len(r.Members))
	for _, m := range r.Members {
		if m != a {
			out = append(out, m)
		}
	}
	return Ring{Epoch: r.Epoch + 1, Members: out}
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

func (r Ring) String() string {
	return fmt.Sprintf("ring{epoch %d, %v}", r.Epoch, r.Members)
}

// Router is the client-side routing surface: it answers "which shard owns
// this directory, and under which epoch do I believe that" and absorbs ring
// updates pushed back by shards in stale-epoch redirects. It replaces the
// old core.Options.LeaseRoute func(types.Ino) rpc.Addr hook.
type Router interface {
	// Route returns the shard to contact for dir and the epoch of the ring
	// that produced the answer (0 when routing statically).
	Route(dir types.Ino) (rpc.Addr, Epoch)
	// Update installs a newer ring; older or same-epoch rings are ignored.
	Update(Ring)
}

// RingRouter caches a Ring and routes by rendezvous hash. It is safe for
// concurrent use: the lease keeper, foreground acquires, and redirect-driven
// updates all share one instance per client.
type RingRouter struct {
	mu   sync.RWMutex
	ring Ring
}

// NewRouter returns a RingRouter seeded with r.
func NewRouter(r Ring) *RingRouter { return &RingRouter{ring: r} }

// Route implements Router.
func (rr *RingRouter) Route(dir types.Ino) (rpc.Addr, Epoch) {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	return rr.ring.RouteAddr(dir), rr.ring.Epoch
}

// Update implements Router. Only strictly newer rings are installed, so a
// delayed redirect carrying an old ring cannot roll the cache back.
func (rr *RingRouter) Update(nr Ring) {
	rr.mu.Lock()
	if nr.Epoch > rr.ring.Epoch {
		rr.ring = nr
	}
	rr.mu.Unlock()
}

// Ring returns the cached ring (for tests and debugging).
func (rr *RingRouter) Ring() Ring {
	rr.mu.RLock()
	defer rr.mu.RUnlock()
	return rr.ring
}
