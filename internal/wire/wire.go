// Package wire implements the compact binary encoding ArkFS uses to store
// file-system metadata as object-store values: inodes ("i:" objects), dentry
// blocks ("e:" objects), and journal records ("j:" objects).
//
// The format is deliberately simple — a version byte, varint-prefixed fields,
// and a CRC32C trailer on journal records — so that recovery code can detect
// torn writes and future versions can evolve the layout.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"arkfs/internal/types"
)

// Encoding version bytes, one per record kind. Version 2 added the CRC32C
// trailer to inode and dentry records (journal records carried one from the
// start), so every persisted metadata object is self-verifying.
const (
	verInode  byte = 2
	verDentry byte = 2
	verTxn    byte = 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by all decode failures. It wraps types.ErrIntegrity
// (and transitively types.ErrIO), so readers can distinguish detected
// corruption from other storage failures with errors.Is.
var ErrCorrupt = fmt.Errorf("wire: corrupt record: %w", types.ErrIntegrity)

// TrailerSize is the length of the checksum trailer Seal appends.
const TrailerSize = 4

// Seal appends the CRC32C (Castagnoli) checksum of buf as a 4-byte big-endian
// trailer, in place when capacity allows. Every persisted ArkFS record — txn,
// inode, dentry block, data chunk, superblock — is framed this way.
func Seal(buf []byte) []byte {
	sum := crc32.Checksum(buf, castagnoli)
	return binary.BigEndian.AppendUint32(buf, sum)
}

// Unseal verifies a sealed frame and returns the payload with the trailer
// stripped. The payload aliases frame; callers that mutate it must copy.
func Unseal(frame []byte) ([]byte, error) {
	if len(frame) < TrailerSize {
		return nil, fmt.Errorf("%w: frame too short (%d bytes)", ErrCorrupt, len(frame))
	}
	body, trailer := frame[:len(frame)-TrailerSize], frame[len(frame)-TrailerSize:]
	want := binary.BigEndian.Uint32(trailer)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	return body, nil
}

type encoder struct{ buf []byte }

func (e *encoder) byte(b byte)      { e.buf = append(e.buf, b) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bytes(b []byte)   { e.uvarint(uint64(len(b))); e.buf = append(e.buf, b...) }
func (e *encoder) str(s string)     { e.uvarint(uint64(len(s))); e.buf = append(e.buf, s...) }
func (e *encoder) ino(i types.Ino)  { e.buf = append(e.buf, i[:]...) }

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorrupt, what, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("byte")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("bytes")
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *decoder) str() string { return string(d.bytes()) }

// capHint bounds a count-prefixed pre-allocation by the bytes actually left
// in the buffer (per = minimum encoded size of one element), so a hostile
// count cannot force a huge allocation before decoding fails.
func (d *decoder) capHint(n, per uint64) int {
	if rem := uint64(len(d.buf) - d.off); per > 0 && n > rem/per {
		n = rem / per
	}
	return int(n)
}

func (d *decoder) ino() types.Ino {
	var i types.Ino
	if d.err != nil {
		return i
	}
	if len(d.buf)-d.off < 16 {
		d.fail("ino")
		return i
	}
	copy(i[:], d.buf[d.off:d.off+16])
	d.off += 16
	return i
}
