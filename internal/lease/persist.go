package lease

import (
	"encoding/binary"
	"fmt"
	"slices"

	"arkfs/internal/rpc"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Grant-table snapshot codec. Each shard persists its whole table as one
// CRC-sealed object (wire.Seal trailer) under SnapshotKey(addr): the table is
// small — one fixed-size record per directory that ever chained a lease — and
// a single sealed object gives atomic replace semantics on the object store,
// so a torn write is detected (wire.ErrCorrupt) rather than half-applied.
// Encoding is deterministic (directories sorted by inode) so identical tables
// produce identical bytes across processes and replays.

// snapVersion guards the layout; a decoder seeing another version treats the
// snapshot as unusable (same path as corruption: conservative restart).
// Version 2 dropped the expiries: an instant on a dead process's clock means
// nothing to its successor. Version 3 dropped a section only live resharding
// used.
const snapVersion = 3

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// encodeSnapshot serializes t's chains, without their expiries. Callers hold
// the manager lock; the result is sealed and ready for one store.Put.
func encodeSnapshot(t *grants) []byte {
	inos := make([]types.Ino, 0, len(t.dirs))
	for ino := range t.dirs {
		inos = append(inos, ino)
	}
	slices.SortFunc(inos, types.Ino.Compare)
	buf := make([]byte, 0, 64+len(t.dirs)*64)
	buf = append(buf, snapVersion)
	buf = binary.AppendUvarint(buf, t.nextID)
	buf = binary.AppendUvarint(buf, uint64(len(inos)))
	for _, ino := range inos {
		d := t.dirs[ino]
		buf = append(buf, ino[:]...)
		buf = appendString(buf, string(d.Holder))
		buf = binary.AppendUvarint(buf, d.LeaseID)
		var flags byte
		if d.Clean {
			flags |= 1
		}
		if d.Recovering {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = appendString(buf, string(d.PrevHolder))
		buf = binary.AppendUvarint(buf, d.RecoverID)
	}
	return wire.Seal(buf)
}

// snapDecoder cursors through an unsealed snapshot body; the first short read
// poisons it, and the caller checks err once at the end.
type snapDecoder struct {
	buf []byte
	off int
	err error
}

func (d *snapDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", wire.ErrCorrupt, what, d.off)
	}
}

func (d *snapDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *snapDecoder) string(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return ""
	}
	return string(d.bytes(int(n), what))
}

// decodeSnapshot parses a sealed grant-table object into a table whose
// expiries are all zero (grants.resume sets them). Any failure — CRC, short
// buffer, unknown version — returns an error wrapping wire.ErrCorrupt, and
// the caller falls back to conservative cold-restart semantics.
func decodeSnapshot(frame []byte) (*grants, error) {
	body, err := wire.Unseal(frame)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 || body[0] != snapVersion {
		return nil, fmt.Errorf("%w: unsupported lease snapshot version", wire.ErrCorrupt)
	}
	st := newGrants(0)
	d := &snapDecoder{buf: body, off: 1}
	st.nextID = d.uvarint("nextID")
	ndirs := d.uvarint("dir count")
	if d.err == nil && ndirs > uint64(len(body)) {
		d.fail("dir count")
	}
	for i := uint64(0); i < ndirs && d.err == nil; i++ {
		g := &DirGrant{}
		copy(g.Dir[:], d.bytes(len(g.Dir), "ino"))
		g.Holder = rpc.Addr(d.string("holder"))
		g.LeaseID = d.uvarint("leaseID")
		flags := d.bytes(1, "flags")
		if d.err == nil {
			g.Clean = flags[0]&1 != 0
			g.Recovering = flags[0]&2 != 0
		}
		g.PrevHolder = rpc.Addr(d.string("prevHolder"))
		g.RecoverID = d.uvarint("recoverID")
		if d.err == nil {
			st.dirs[g.Dir] = g
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}
