package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"arkfs/internal/types"
)

func sampleInode() *types.Inode {
	return &types.Inode{
		Ino:   types.RootIno,
		Type:  types.TypeDir,
		Mode:  0755,
		Uid:   1000,
		Gid:   1000,
		Nlink: 3,
		Size:  4096,
		Atime: time.Second,
		Mtime: 2 * time.Second,
		Ctime: 3 * time.Second,
		ACL: types.ACL{
			{Tag: types.TagUserObj, Perms: 7},
			{Tag: types.TagUser, ID: 501, Perms: 5},
			{Tag: types.TagMask, Perms: 5},
		},
	}
}

func TestInodeRoundTrip(t *testing.T) {
	in := sampleInode()
	out, err := DecodeInode(EncodeInode(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestSymlinkInodeRoundTrip(t *testing.T) {
	in := &types.Inode{Ino: types.RootIno, Type: types.TypeSymlink, Mode: 0777, Target: "/some/where/else"}
	out, err := DecodeInode(EncodeInode(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Target != in.Target || out.Type != types.TypeSymlink {
		t.Fatalf("symlink fields lost: %+v", out)
	}
}

func TestInodeDecodeRejectsDamage(t *testing.T) {
	good := EncodeInode(sampleInode())
	cases := map[string][]byte{
		"empty":     {},
		"bad ver":   append([]byte{99}, good[1:]...),
		"truncated": good[:len(good)/2],
		"trailing":  append(append([]byte{}, good...), 0xFF),
	}
	for name, buf := range cases {
		if _, err := DecodeInode(buf); !errors.Is(err, types.ErrIO) {
			t.Errorf("%s: want wrapped ErrIO, got %v", name, err)
		}
	}
}

func TestDentriesRoundTrip(t *testing.T) {
	src := types.NewInoSource(3)
	in := []Dentry{
		{Name: "alpha", Ino: src.Next(), Type: types.TypeRegular},
		{Name: "beta dir", Ino: src.Next(), Type: types.TypeDir},
		{Name: "γλώσσα", Ino: src.Next(), Type: types.TypeSymlink},
	}
	out, err := DecodeDentries(EncodeDentries(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch: %+v vs %+v", in, out)
	}
	// Empty directory.
	out, err = DecodeDentries(EncodeDentries(nil))
	if err != nil || len(out) != 0 {
		t.Fatalf("empty block: %v %v", out, err)
	}
}

func sampleTxn() *Txn {
	src := types.NewInoSource(9)
	child := src.Next()
	return &Txn{
		ID:    42,
		Dir:   src.Next(),
		Kind:  TxnNormal,
		Stamp: 7 * time.Second,
		Ops: []Op{
			{Kind: OpSetInode, Inode: sampleInode()},
			{Kind: OpAddDentry, Name: "newfile", Ino: child, FType: types.TypeRegular},
			{Kind: OpDelDentry, Name: "oldfile"},
			{Kind: OpDelInode, Ino: src.Next()},
		},
	}
}

func TestTxnRoundTrip(t *testing.T) {
	in := sampleTxn()
	out, err := DecodeTxn(EncodeTxn(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

// EncodeTxn sizes its buffer from the op count alone. A record the journal
// has coalesced is, per created file, one inode op and one dentry op, plus
// the directory's inode once; with mdtest-sized names and a stamp minutes
// into the run that mix must still fit the estimate, so the encoder
// allocates its buffer once (every other allocation is an inode's frame).
func TestEncodeTxnPresizeFitsCoalescedCreates(t *testing.T) {
	src := types.NewInoSource(12)
	const stamp = 30 * time.Minute
	dir := &types.Inode{Ino: src.Next(), Type: types.TypeDir, Mode: 0755, Uid: 1000, Gid: 1000, Nlink: 2,
		Atime: stamp, Mtime: stamp, Ctime: stamp}
	for _, files := range []int{1, 10, 2500} {
		ops := make([]Op, 0, 2*files+1)
		for i := 0; i < files; i++ {
			child := &types.Inode{Ino: src.Next(), Type: types.TypeRegular, Mode: 0644, Uid: 1000, Gid: 1000, Nlink: 1,
				Size: 3901, Atime: stamp, Mtime: stamp, Ctime: stamp}
			ops = append(ops, Op{Kind: OpSetInode, Inode: child},
				Op{Kind: OpAddDentry, Name: "file.mdtest.0." + string(rune('a'+i%26)), Ino: child.Ino, FType: child.Type})
			if i == 0 {
				ops = append(ops, Op{Kind: OpSetInode, Inode: dir})
			}
		}
		txn := &Txn{ID: 1<<40 | 7, Dir: dir.Ino, Kind: TxnNormal, Stamp: stamp, Ops: ops}
		inodeFrames := float64(files + 1)
		if got := testing.AllocsPerRun(5, func() { EncodeTxn(txn) }); got != inodeFrames+1 {
			t.Errorf("%d creates: %v allocations, want %v inode frames + one buffer", files, got, inodeFrames)
		}
	}
}

func TestTxn2PCKindsRoundTrip(t *testing.T) {
	src := types.NewInoSource(11)
	for _, kind := range []TxnKind{TxnPrepare, TxnCommit, TxnAbort} {
		in := &Txn{ID: 7, Dir: src.Next(), Kind: kind, Peer: src.Next(), Ops: []Op{}}
		out, err := DecodeTxn(EncodeTxn(in))
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if out.Kind != kind || out.Peer != in.Peer {
			t.Fatalf("kind %d: lost fields: %+v", kind, out)
		}
	}
}

func TestTxnCRCDetectsBitFlips(t *testing.T) {
	buf := EncodeTxn(sampleTxn())
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 64; trial++ {
		mut := append([]byte{}, buf...)
		mut[rng.Intn(len(mut))] ^= 1 << uint(rng.Intn(8))
		if bytes.Equal(mut, buf) {
			continue
		}
		if _, err := DecodeTxn(mut); err == nil {
			t.Fatalf("bit flip at trial %d went undetected", trial)
		}
	}
}

func TestTxnTruncationDetected(t *testing.T) {
	buf := EncodeTxn(sampleTxn())
	for cut := 0; cut < len(buf); cut += 7 {
		if _, err := DecodeTxn(buf[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
}

// Property: any inode with arbitrary field values survives a round trip.
func TestInodeRoundTripQuick(t *testing.T) {
	f := func(ino [16]byte, typ uint8, mode uint16, uid, gid, nlink uint32,
		size int64, target string, aclPerm uint8) bool {
		in := &types.Inode{
			Ino:  types.Ino(ino),
			Type: types.FileType(typ % 3),
			Mode: types.Mode(mode & 07777),
			Uid:  uid, Gid: gid, Nlink: nlink,
			Size:  size,
			Atime: time.Duration(size ^ 0x55), Mtime: 1, Ctime: -1,
			Target: target,
		}
		if aclPerm%2 == 0 {
			in.ACL = types.ACL{{Tag: types.TagUserObj, Perms: aclPerm & 7}}
		}
		out, err := DecodeInode(EncodeInode(in))
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: dentry blocks with arbitrary names survive a round trip.
func TestDentriesRoundTripQuick(t *testing.T) {
	src := types.NewInoSource(17)
	f := func(names []string) bool {
		in := make([]Dentry, len(names))
		for i, n := range names {
			in[i] = Dentry{Name: n, Ino: src.Next(), Type: types.FileType(i % 3)}
		}
		out, err := DecodeDentries(EncodeDentries(in))
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
