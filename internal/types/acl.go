package types

import (
	"fmt"
	"sort"
	"strings"
)

// ACLTag identifies the subject class of an ACL entry, following the POSIX.1e
// draft model the HPC community relies on for per-directory access control.
type ACLTag uint8

// ACL entry tags.
const (
	TagUserObj  ACLTag = iota // the owning user (ID ignored)
	TagUser                   // a named user
	TagGroupObj               // the owning group (ID ignored)
	TagGroup                  // a named group
	TagMask                   // upper bound for group-class entries
	TagOther                  // everyone else
)

// String implements fmt.Stringer.
func (t ACLTag) String() string {
	switch t {
	case TagUserObj:
		return "user_obj"
	case TagUser:
		return "user"
	case TagGroupObj:
		return "group_obj"
	case TagGroup:
		return "group"
	case TagMask:
		return "mask"
	case TagOther:
		return "other"
	default:
		return "bad_tag"
	}
}

// ACLEntry grants Perms (MayRead|MayWrite|MayExec bits) to the subject
// identified by Tag and ID.
type ACLEntry struct {
	Tag   ACLTag
	ID    uint32
	Perms uint8
}

// ACL is an ordered list of entries. An empty ACL means "mode bits only".
// A non-empty ACL must be valid per Validate before being stored.
type ACL []ACLEntry

// Clone returns a copy that does not alias the receiver; an empty ACL clones
// to nil, as the stored format and gob decode it.
func (a ACL) Clone() ACL {
	if len(a) == 0 {
		return nil
	}
	c := make(ACL, len(a))
	copy(c, a)
	return c
}

// Validate checks POSIX.1e structural rules: at most one entry each of
// user_obj/group_obj/other/mask, no duplicate named entries, and a mask
// required whenever named entries exist.
func (a ACL) Validate() error {
	if len(a) == 0 {
		return nil
	}
	var nUserObj, nGroupObj, nOther, nMask, nNamed int
	users := map[uint32]bool{}
	groups := map[uint32]bool{}
	for _, e := range a {
		if e.Perms > 7 {
			return fmt.Errorf("types: acl perms %o out of range: %w", e.Perms, ErrInval)
		}
		switch e.Tag {
		case TagUserObj:
			nUserObj++
		case TagGroupObj:
			nGroupObj++
		case TagOther:
			nOther++
		case TagMask:
			nMask++
		case TagUser:
			if users[e.ID] {
				return fmt.Errorf("types: duplicate acl user %d: %w", e.ID, ErrInval)
			}
			users[e.ID] = true
			nNamed++
		case TagGroup:
			if groups[e.ID] {
				return fmt.Errorf("types: duplicate acl group %d: %w", e.ID, ErrInval)
			}
			groups[e.ID] = true
			nNamed++
		default:
			return fmt.Errorf("types: bad acl tag %d: %w", e.Tag, ErrInval)
		}
	}
	if nUserObj > 1 || nGroupObj > 1 || nOther > 1 || nMask > 1 {
		return fmt.Errorf("types: duplicate acl base entry: %w", ErrInval)
	}
	if nNamed > 0 && nMask == 0 {
		return fmt.Errorf("types: acl with named entries requires a mask: %w", ErrInval)
	}
	return nil
}

// evaluate resolves cred's permissions under the ACL, with the inode
// supplying the owner uid/gid and the mode bits supplying defaults for base
// entries that the ACL omits.
func (a ACL) evaluate(cred Cred, n *Inode) uint8 {
	mask := uint8(7)
	hasMask := false
	for _, e := range a {
		if e.Tag == TagMask {
			mask, hasMask = e.Perms, true
		}
	}
	_ = hasMask

	// 1. Owner.
	if cred.Uid == n.Uid {
		for _, e := range a {
			if e.Tag == TagUserObj {
				return e.Perms
			}
		}
		return uint8(n.Mode >> 6 & 7)
	}
	// 2. Named user (masked).
	for _, e := range a {
		if e.Tag == TagUser && e.ID == cred.Uid {
			return e.Perms & mask
		}
	}
	// 3. Owning group and named groups: the union of matching entries,
	// masked, per POSIX.1e "best match" across the group class.
	var groupPerms uint8
	groupMatch := false
	for _, e := range a {
		switch e.Tag {
		case TagGroupObj:
			if cred.InGroup(n.Gid) {
				groupPerms |= e.Perms
				groupMatch = true
			}
		case TagGroup:
			if cred.InGroup(e.ID) {
				groupPerms |= e.Perms
				groupMatch = true
			}
		}
	}
	if !groupMatch && cred.InGroup(n.Gid) {
		groupPerms, groupMatch = uint8(n.Mode>>3&7), true
	}
	if groupMatch {
		return groupPerms & mask
	}
	// 4. Other.
	for _, e := range a {
		if e.Tag == TagOther {
			return e.Perms
		}
	}
	return uint8(n.Mode & 7)
}

// anyExec reports whether any entry grants execute; used by the superuser
// execute check.
func (a ACL) anyExec() bool {
	for _, e := range a {
		if e.Perms&MayExec != 0 {
			return true
		}
	}
	return false
}

// Normalize sorts entries into canonical tag/ID order so encoded ACLs
// compare bytewise.
func (a ACL) Normalize() {
	sort.SliceStable(a, func(i, j int) bool {
		if a[i].Tag != a[j].Tag {
			return a[i].Tag < a[j].Tag
		}
		return a[i].ID < a[j].ID
	})
}

// String renders the ACL in getfacl-like form for diagnostics.
func (a ACL) String() string {
	if len(a) == 0 {
		return "(mode bits)"
	}
	parts := make([]string, 0, len(a))
	for _, e := range a {
		p := [3]byte{'-', '-', '-'}
		if e.Perms&MayRead != 0 {
			p[0] = 'r'
		}
		if e.Perms&MayWrite != 0 {
			p[1] = 'w'
		}
		if e.Perms&MayExec != 0 {
			p[2] = 'x'
		}
		parts = append(parts, fmt.Sprintf("%s:%d:%s", e.Tag, e.ID, p[:]))
	}
	return strings.Join(parts, ",")
}
