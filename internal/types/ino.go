// Package types defines the fundamental file-system types shared by every
// ArkFS component: 128-bit inode numbers, inodes, access-control metadata,
// credentials, and the POSIX-style error set.
//
// ArkFS (IPDPS 2023) uses a 128-bit UUID as its inode number and builds every
// object key from a one-byte prefix plus the inode number, so the inode
// number type lives here at the bottom of the dependency graph.
package types

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
)

// Ino is a 128-bit file-system inode number (a UUID in the paper's terms).
// It is a value type and comparable, so it can be used directly as a map key.
type Ino [16]byte

// RootIno is the well-known inode number of the file-system root directory.
// Every client derives it without any lookup, exactly as "/" needs no parent.
var RootIno = Ino{0xa4, 0x4f, 0x53, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}

// NilIno is the zero inode number; it is never a valid file.
var NilIno = Ino{}

// IsNil reports whether the inode number is the invalid zero value.
func (i Ino) IsNil() bool { return i == NilIno }

// String renders the inode number as 32 hex digits.
func (i Ino) String() string { return hex.EncodeToString(i[:]) }

// Short returns an abbreviated form used in logs and error messages.
func (i Ino) Short() string { return hex.EncodeToString(i[:4]) }

// Hi returns the upper 64 bits. It is used to map directories onto journal
// commit/checkpoint workers ("statically mapped ... depending on the
// directory inode numbers", paper §III-E).
func (i Ino) Hi() uint64 { return binary.BigEndian.Uint64(i[0:8]) }

// Lo returns the lower 64 bits.
func (i Ino) Lo() uint64 { return binary.BigEndian.Uint64(i[8:16]) }

// Compare orders inode numbers bytewise, for slices.SortFunc: work collected
// from an Ino-keyed map is done in this order, not the map's, so a seeded
// simulation replays.
func (i Ino) Compare(j Ino) int { return bytes.Compare(i[:], j[:]) }

// ParseIno parses the 32-hex-digit form produced by String.
func ParseIno(s string) (Ino, error) {
	var i Ino
	if len(s) != 32 {
		return i, fmt.Errorf("types: bad ino %q: want 32 hex digits", s)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return i, fmt.Errorf("types: bad ino %q: %v", s, err)
	}
	copy(i[:], b)
	return i, nil
}

// InoSource deterministically generates fresh inode numbers. Each client owns
// one source seeded with a distinct value, so inode numbers are unique across
// the cluster without coordination while simulation runs stay reproducible.
type InoSource struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewInoSource returns a source seeded with seed. Two sources with different
// seeds produce disjoint streams with overwhelming probability (128 random
// bits per inode).
func NewInoSource(seed int64) *InoSource {
	return &InoSource{rng: rand.New(rand.NewSource(seed))}
}

// Next returns a fresh inode number. It never returns NilIno or RootIno.
func (s *InoSource) Next() Ino {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		var i Ino
		binary.BigEndian.PutUint64(i[0:8], s.rng.Uint64())
		binary.BigEndian.PutUint64(i[8:16], s.rng.Uint64())
		if i != NilIno && i != RootIno {
			return i
		}
	}
}
