// Package prt implements ArkFS's POSIX-REST Translator (paper §III-F): the
// layer that maps file-system entities onto object-store keys and translates
// POSIX block I/O into REST object operations against any registered backend.
//
// Key scheme (prefix + 128-bit inode UUID, as in the paper):
//
//	i:<ino>          inode record
//	e:<ino>          dentry block of directory <ino>
//	j:<ino>:<seq>    journal transaction <seq> of directory <ino>
//	d:<ino>:<idx>    data chunk <idx> of file <ino>
//
// File data is split into fixed-size chunks no larger than the backend's
// maximum object size.
package prt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/types"
	"arkfs/internal/wire"
)

// Object key prefixes.
const (
	PrefixInode   = "i:"
	PrefixDentry  = "e:"
	PrefixJournal = "j:"
	PrefixData    = "d:"
)

// DefaultChunkSize is the data-object size ArkFS writes; it matches the 2 MiB
// cache entry and divides the RADOS 4 MiB object limit evenly.
const DefaultChunkSize int64 = 2 << 20

// SuperblockKey stores the file system's formatting parameters.
const SuperblockKey = "s:arkfs"

// Superblock records the parameters a mount (or fsck) must agree on.
type Superblock struct {
	Version   uint32
	ChunkSize int64
}

// EncodeSuperblock serializes the superblock with a CRC32C trailer.
func EncodeSuperblock(sb Superblock) []byte {
	buf := make([]byte, 0, 16)
	buf = binary.AppendUvarint(buf, uint64(sb.Version))
	buf = binary.AppendVarint(buf, sb.ChunkSize)
	return wire.Seal(buf)
}

// DecodeSuperblock parses and CRC-verifies a superblock object.
func DecodeSuperblock(frame []byte) (Superblock, error) {
	var sb Superblock
	raw, err := wire.Unseal(frame)
	if err != nil {
		return sb, fmt.Errorf("prt: superblock: %w", err)
	}
	v, n := binary.Uvarint(raw)
	if n <= 0 {
		return sb, fmt.Errorf("prt: corrupt superblock: %w", types.ErrIntegrity)
	}
	sb.Version = uint32(v)
	cs, m := binary.Varint(raw[n:])
	if m <= 0 || cs <= 0 {
		return sb, fmt.Errorf("prt: corrupt superblock chunk size: %w", types.ErrIntegrity)
	}
	sb.ChunkSize = cs
	return sb, nil
}

// InodeKey returns the object key of an inode record.
func InodeKey(ino types.Ino) string { return PrefixInode + ino.String() }

// DentryKey returns the object key of a directory's dentry block.
func DentryKey(dir types.Ino) string { return PrefixDentry + dir.String() }

// JournalKey returns the object key of one committed journal transaction.
func JournalKey(dir types.Ino, seq uint64) string {
	return fmt.Sprintf("%s%s:%016x", PrefixJournal, dir.String(), seq)
}

// JournalPrefix returns the key prefix of every journal object of dir, for
// recovery scans.
func JournalPrefix(dir types.Ino) string { return PrefixJournal + dir.String() + ":" }

// ParseJournalSeq extracts the sequence number from a journal object key.
func ParseJournalSeq(key string) (uint64, error) {
	i := strings.LastIndexByte(key, ':')
	if i < 0 {
		return 0, fmt.Errorf("prt: bad journal key %q: %w", key, types.ErrInval)
	}
	return strconv.ParseUint(key[i+1:], 16, 64)
}

// DataKey returns the object key of a file's idx-th data chunk.
func DataKey(ino types.Ino, idx int64) string {
	return fmt.Sprintf("%s%s:%d", PrefixData, ino.String(), idx)
}

// Translator binds the key scheme and chunking policy to a registered object
// storage backend. All ArkFS components perform storage access through it.
type Translator struct {
	store     objstore.Store
	chunkSize int64
	detected  *obs.Counter // integrity.detected; nil-safe
}

// New creates a translator over the backend. chunkSize <= 0 selects
// DefaultChunkSize.
func New(store objstore.Store, chunkSize int64) *Translator {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Translator{store: store, chunkSize: chunkSize}
}

// SetObs registers the translator's integrity counter on reg. A nil registry
// leaves detection uncounted but still reported through typed errors.
func (t *Translator) SetObs(reg *obs.Registry) {
	t.detected = reg.Counter("integrity.detected")
}

// noteIntegrity counts err against integrity.detected when it is a checksum
// failure, and returns it unchanged for wrapping convenience.
func (t *Translator) noteIntegrity(err error) error {
	if err != nil && errors.Is(err, types.ErrIntegrity) {
		t.detected.Inc()
	}
	return err
}

// Store exposes the underlying backend for components (journal, recovery)
// that operate on raw keys.
func (t *Translator) Store() objstore.Store { return t.store }

// ChunkSize returns the data chunk size in bytes.
func (t *Translator) ChunkSize() int64 { return t.chunkSize }

// --- Metadata objects -------------------------------------------------------

// LoadInode fetches and decodes an inode record.
func (t *Translator) LoadInode(ino types.Ino) (*types.Inode, error) {
	raw, err := t.store.Get(InodeKey(ino))
	if err != nil {
		return nil, fmt.Errorf("prt: load inode %s: %w", ino.Short(), err)
	}
	n, err := wire.DecodeInode(raw)
	if err != nil {
		return nil, t.noteIntegrity(fmt.Errorf("prt: inode %s: %w", ino.Short(), err))
	}
	return n, nil
}

// SaveInode encodes and stores an inode record.
func (t *Translator) SaveInode(n *types.Inode) error {
	if err := t.store.Put(InodeKey(n.Ino), wire.EncodeInode(n)); err != nil {
		return fmt.Errorf("prt: save inode %s: %w", n.Ino.Short(), err)
	}
	return nil
}

// DeleteInode removes an inode record.
func (t *Translator) DeleteInode(ino types.Ino) error {
	return t.store.Delete(InodeKey(ino))
}

// LoadDentries fetches a directory's dentry block; a missing block is an
// empty directory (fresh directories have no "e:" object yet).
func (t *Translator) LoadDentries(dir types.Ino) ([]wire.Dentry, error) {
	raw, err := t.store.Get(DentryKey(dir))
	if errors.Is(err, types.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("prt: load dentries %s: %w", dir.Short(), err)
	}
	des, err := wire.DecodeDentries(raw)
	if err != nil {
		return nil, t.noteIntegrity(fmt.Errorf("prt: dentries %s: %w", dir.Short(), err))
	}
	return des, nil
}

// SaveDentries stores a directory's dentry block.
func (t *Translator) SaveDentries(dir types.Ino, entries []wire.Dentry) error {
	if err := t.store.Put(DentryKey(dir), wire.EncodeDentries(entries)); err != nil {
		return fmt.Errorf("prt: save dentries %s: %w", dir.Short(), err)
	}
	return nil
}

// DeleteDentries removes a directory's dentry block.
func (t *Translator) DeleteDentries(dir types.Ino) error {
	return t.store.Delete(DentryKey(dir))
}

// --- Data objects ------------------------------------------------------------

// GetChunk fetches, CRC-verifies, and returns the payload of one data chunk.
// A missing chunk propagates ErrNotExist (a hole); a chunk that fails
// verification returns a typed integrity error — never silently wrong bytes.
func (t *Translator) GetChunk(ino types.Ino, idx int64) ([]byte, error) {
	raw, err := t.store.Get(DataKey(ino, idx))
	if err != nil {
		return nil, err
	}
	payload, err := wire.Unseal(raw)
	if err != nil {
		return nil, t.noteIntegrity(fmt.Errorf("prt: chunk %d of %s: %w", idx, ino.Short(), err))
	}
	return payload, nil
}

// PutChunk seals and stores the payload of one data chunk. The payload is not
// mutated: the CRC trailer is appended to a fresh frame.
func (t *Translator) PutChunk(ino types.Ino, idx int64, payload []byte) error {
	// Full slice expression so Seal's append cannot scribble past the
	// payload into a caller-owned buffer.
	return t.PutChunkOwned(ino, idx, payload[:len(payload):len(payload)])
}

// PutChunkOwned is PutChunk for a caller that owns payload's spare capacity
// and keeps the buffer unwritten until the call returns (the cache's
// write-back): with wire.TrailerSize bytes to spare the trailer is written
// there and the chunk goes to the store without being copied here.
func (t *Translator) PutChunkOwned(ino types.Ino, idx int64, payload []byte) error {
	if err := t.store.Put(DataKey(ino, idx), wire.Seal(payload)); err != nil {
		return fmt.Errorf("prt: write chunk %d of %s: %w", idx, ino.Short(), err)
	}
	return nil
}

// ReadAt fills buf from the file's data objects starting at offset off and
// reports the bytes read. size is the file's current size; reads are clipped
// to it and holes (missing chunks) read as zeros. n < len(buf) only at EOF.
func (t *Translator) ReadAt(ino types.Ino, buf []byte, off, size int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("prt: negative offset: %w", types.ErrInval)
	}
	if off >= size {
		return 0, nil
	}
	if max := size - off; int64(len(buf)) > max {
		buf = buf[:max]
	}
	read := 0
	for read < len(buf) {
		pos := off + int64(read)
		idx := pos / t.chunkSize
		inChunk := pos % t.chunkSize
		want := int64(len(buf) - read)
		if r := t.chunkSize - inChunk; want > r {
			want = r
		}
		chunk, err := t.GetChunk(ino, idx)
		switch {
		case errors.Is(err, types.ErrNotExist):
			// Hole: zero-fill.
			for i := int64(0); i < want; i++ {
				buf[read+int(i)] = 0
			}
		case err != nil:
			return read, fmt.Errorf("prt: read chunk %d of %s: %w", idx, ino.Short(), err)
		default:
			n := copy(buf[read:read+int(want)], chunk[min64(inChunk, int64(len(chunk))):])
			// Short chunk inside the file: the remainder is a hole.
			for i := n; int64(i) < want; i++ {
				buf[read+i] = 0
			}
		}
		read += int(want)
	}
	return read, nil
}

// WriteAt writes buf at offset off, performing read-modify-write on partially
// covered chunks. The caller (the cache flush path or a direct-I/O write)
// updates the inode size separately.
func (t *Translator) WriteAt(ino types.Ino, buf []byte, off int64) error {
	if off < 0 {
		return fmt.Errorf("prt: negative offset: %w", types.ErrInval)
	}
	written := 0
	for written < len(buf) {
		pos := off + int64(written)
		idx := pos / t.chunkSize
		inChunk := pos % t.chunkSize
		want := int64(len(buf) - written)
		if r := t.chunkSize - inChunk; want > r {
			want = r
		}
		var chunk []byte
		if inChunk == 0 && want == t.chunkSize {
			// Full-chunk overwrite: no read needed.
			chunk = buf[written : written+int(want)]
		} else {
			old, err := t.GetChunk(ino, idx)
			if err != nil && !errors.Is(err, types.ErrNotExist) {
				return fmt.Errorf("prt: rmw chunk %d of %s: %w", idx, ino.Short(), err)
			}
			need := inChunk + want
			if int64(len(old)) >= need {
				chunk = old
			} else {
				chunk = make([]byte, need)
				copy(chunk, old)
			}
			copy(chunk[inChunk:], buf[written:written+int(want)])
		}
		if err := t.PutChunk(ino, idx, chunk); err != nil {
			return err
		}
		written += int(want)
	}
	return nil
}

// Truncate adjusts the stored chunks after a size change from oldSize to
// newSize: chunks wholly beyond newSize are deleted and a straddling chunk is
// trimmed. Growing a file needs no object changes (holes read as zeros).
func (t *Translator) Truncate(ino types.Ino, oldSize, newSize int64) error {
	if newSize >= oldSize {
		return nil
	}
	firstDead := (newSize + t.chunkSize - 1) / t.chunkSize
	lastOld := (oldSize + t.chunkSize - 1) / t.chunkSize
	for idx := firstDead; idx < lastOld; idx++ {
		if err := t.store.Delete(DataKey(ino, idx)); err != nil {
			return fmt.Errorf("prt: truncate delete chunk %d: %w", idx, err)
		}
	}
	if rem := newSize % t.chunkSize; rem > 0 && newSize > 0 {
		idx := newSize / t.chunkSize
		old, err := t.GetChunk(ino, idx)
		if errors.Is(err, types.ErrNotExist) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("prt: truncate trim chunk %d: %w", idx, err)
		}
		if int64(len(old)) > rem {
			if err := t.PutChunk(ino, idx, old[:rem]); err != nil {
				return fmt.Errorf("prt: truncate rewrite chunk %d: %w", idx, err)
			}
		}
	}
	return nil
}

// DeleteData removes every data chunk of a file of the given size.
func (t *Translator) DeleteData(ino types.Ino, size int64) error {
	nChunks := (size + t.chunkSize - 1) / t.chunkSize
	for idx := int64(0); idx < nChunks; idx++ {
		if err := t.store.Delete(DataKey(ino, idx)); err != nil {
			return fmt.Errorf("prt: delete chunk %d of %s: %w", idx, ino.Short(), err)
		}
	}
	return nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
