package lease

import (
	"encoding/binary"
	"fmt"
	"sort"

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
// nothing to its successor.
const snapVersion = 2

// snapshotState is the decoded form of a persisted grant table.
type snapshotState struct {
	nextID   uint64
	suspects []suspect
	dirs     map[types.Ino]*dirState
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendRing(buf []byte, r Ring) []byte {
	buf = binary.AppendUvarint(buf, uint64(r.Epoch))
	buf = binary.AppendUvarint(buf, uint64(len(r.Members)))
	for _, m := range r.Members {
		buf = appendString(buf, string(m))
	}
	return buf
}

// encodeSnapshot serializes the grant table. Callers hold the manager lock;
// the result is sealed and ready for one store.Put.
func encodeSnapshot(dirs map[types.Ino]*dirState, nextID uint64, suspects []suspect) []byte {
	inos := make([]types.Ino, 0, len(dirs))
	for ino := range dirs {
		inos = append(inos, ino)
	}
	sort.Slice(inos, func(i, j int) bool {
		a, b := inos[i], inos[j]
		for k := 0; k < len(a); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	buf := make([]byte, 0, 64+len(dirs)*64)
	buf = append(buf, snapVersion)
	buf = binary.AppendUvarint(buf, nextID)
	buf = binary.AppendUvarint(buf, uint64(len(suspects)))
	for _, s := range suspects {
		buf = appendRing(buf, s.prev)
		buf = appendString(buf, string(s.from))
	}
	buf = binary.AppendUvarint(buf, uint64(len(inos)))
	for _, ino := range inos {
		d := dirs[ino]
		buf = append(buf, ino[:]...)
		buf = appendString(buf, string(d.holder))
		buf = binary.AppendUvarint(buf, d.leaseID)
		var flags byte
		if d.clean {
			flags |= 1
		}
		if d.recovering {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = appendString(buf, string(d.prevHolder))
		buf = binary.AppendUvarint(buf, d.recoverID)
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

func (d *snapDecoder) ring(what string) Ring {
	var r Ring
	r.Epoch = Epoch(d.uvarint(what + " epoch"))
	n := d.uvarint(what + " member count")
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail(what)
		return Ring{}
	}
	r.Members = make([]rpc.Addr, 0, n)
	for i := uint64(0); i < n; i++ {
		r.Members = append(r.Members, rpc.Addr(d.string(what+" member")))
	}
	return r
}

// decodeSnapshot parses a sealed grant-table object. Any failure — CRC, short
// buffer, unknown version — returns an error wrapping wire.ErrCorrupt, and
// the caller falls back to conservative cold-restart semantics.
func decodeSnapshot(frame []byte) (snapshotState, error) {
	var st snapshotState
	body, err := wire.Unseal(frame)
	if err != nil {
		return st, err
	}
	if len(body) < 1 || body[0] != snapVersion {
		return st, fmt.Errorf("%w: unsupported lease snapshot version", wire.ErrCorrupt)
	}
	d := &snapDecoder{buf: body, off: 1}
	st.nextID = d.uvarint("nextID")
	nsus := d.uvarint("suspect count")
	if d.err == nil && nsus > uint64(len(body)) {
		d.fail("suspect count")
	}
	for i := uint64(0); i < nsus && d.err == nil; i++ {
		var s suspect
		s.prev = d.ring("suspect ring")
		s.from = rpc.Addr(d.string("suspect from"))
		st.suspects = append(st.suspects, s)
	}
	ndirs := d.uvarint("dir count")
	if d.err == nil && ndirs > uint64(len(body)) {
		d.fail("dir count")
	}
	st.dirs = make(map[types.Ino]*dirState, ndirs)
	for i := uint64(0); i < ndirs && d.err == nil; i++ {
		var ino types.Ino
		copy(ino[:], d.bytes(len(ino), "ino"))
		ds := &dirState{}
		ds.holder = rpc.Addr(d.string("holder"))
		ds.leaseID = d.uvarint("leaseID")
		flags := d.bytes(1, "flags")
		if d.err == nil {
			ds.clean = flags[0]&1 != 0
			ds.recovering = flags[0]&2 != 0
		}
		ds.prevHolder = rpc.Addr(d.string("prevHolder"))
		ds.recoverID = d.uvarint("recoverID")
		if d.err == nil {
			st.dirs[ino] = ds
		}
	}
	if d.err != nil {
		return snapshotState{}, d.err
	}
	return st, nil
}
