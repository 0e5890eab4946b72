package wire

import (
	"fmt"
	"time"

	"arkfs/internal/types"
)

// OpKind identifies one logged metadata mutation inside a transaction.
type OpKind byte

// Journal operation kinds.
const (
	OpSetInode  OpKind = 1 // write/refresh an inode object
	OpDelInode  OpKind = 2 // delete an inode object
	OpAddDentry OpKind = 3 // insert a name into the directory
	OpDelDentry OpKind = 4 // remove a name from the directory
)

// DirHint marks an OpDelInode as deleting a directory, so checkpoint also
// removes its dentry block.
const DirHint = types.TypeDir

// TxnKind distinguishes ordinary transactions from two-phase-commit records.
type TxnKind byte

// Transaction kinds.
const (
	TxnNormal       TxnKind = 1 // self-contained compound transaction
	TxnPrepare      TxnKind = 2 // 2PC participant: ops valid only if coordinator committed
	TxnCommit       TxnKind = 3 // 2PC coordinator decision marker (no ops)
	TxnAbort        TxnKind = 4 // 2PC explicit abort marker (no ops)
	TxnCoordPrepare TxnKind = 5 // 2PC coordinator's own prepare: ops valid only once it committed
)

// Op is one logged mutation. Fields are used according to Kind.
type Op struct {
	Kind  OpKind
	Inode *types.Inode   // OpSetInode
	Ino   types.Ino      // OpDelInode / OpAddDentry
	Name  string         // OpAddDentry / OpDelDentry
	FType types.FileType // OpAddDentry / OpDelDentry / OpDelInode
	Size  int64          // OpDelInode: file size, so checkpoint can drop data chunks
}

// Txn is a compound transaction: every metadata mutation buffered for one
// directory during a commit interval (paper §III-E), plus the 2PC framing
// for cross-directory operations.
type Txn struct {
	ID    uint64    // unique per (client, directory) stream
	Dir   types.Ino // the owning directory
	Kind  TxnKind
	Peer  types.Ino     // 2PC: the other directory of the rename
	Stamp time.Duration // virtual time of commit, for diagnostics
	Ops   []Op
}

// EncodeTxn serializes the transaction with a CRC32C trailer so recovery can
// reject torn or corrupt journal objects.
func EncodeTxn(t *Txn) []byte {
	e := &encoder{buf: make([]byte, 0, 64+len(t.Ops)*48)}
	e.byte(verTxn)
	e.uvarint(t.ID)
	e.ino(t.Dir)
	e.byte(byte(t.Kind))
	e.ino(t.Peer)
	e.varint(int64(t.Stamp))
	e.uvarint(uint64(len(t.Ops)))
	for i := range t.Ops {
		op := &t.Ops[i]
		e.byte(byte(op.Kind))
		switch op.Kind {
		case OpSetInode:
			e.bytes(EncodeInode(op.Inode))
		case OpDelInode:
			e.ino(op.Ino)
			e.varint(op.Size)
			e.byte(byte(op.FType))
		case OpAddDentry:
			e.str(op.Name)
			e.ino(op.Ino)
			e.byte(byte(op.FType))
		case OpDelDentry:
			e.str(op.Name)
		default:
			panic(fmt.Sprintf("wire: unknown op kind %d", op.Kind))
		}
	}
	return Seal(e.buf)
}

// DecodeTxn parses and CRC-verifies a transaction record.
func DecodeTxn(buf []byte) (*Txn, error) {
	if len(buf) < 5 {
		return nil, fmt.Errorf("%w: txn record too short (%d bytes)", ErrCorrupt, len(buf))
	}
	body, err := Unseal(buf)
	if err != nil {
		return nil, fmt.Errorf("txn: %w", err)
	}
	d := &decoder{buf: body}
	if v := d.byte(); d.err == nil && v != verTxn {
		return nil, fmt.Errorf("%w: txn version %d", ErrCorrupt, v)
	}
	t := &Txn{}
	t.ID = d.uvarint()
	t.Dir = d.ino()
	t.Kind = TxnKind(d.byte())
	t.Peer = d.ino()
	t.Stamp = time.Duration(d.varint())
	n := d.uvarint()
	if d.err != nil {
		return nil, d.err
	}
	if n > 1<<22 {
		return nil, fmt.Errorf("%w: absurd op count %d", ErrCorrupt, n)
	}
	t.Ops = make([]Op, 0, d.capHint(n, 2))
	for i := uint64(0); i < n; i++ {
		var op Op
		op.Kind = OpKind(d.byte())
		switch op.Kind {
		case OpSetInode:
			raw := d.bytes()
			if d.err != nil {
				return nil, d.err
			}
			ino, err := DecodeInode(raw)
			if err != nil {
				return nil, err
			}
			op.Inode = ino
		case OpDelInode:
			op.Ino = d.ino()
			op.Size = d.varint()
			op.FType = types.FileType(d.byte())
		case OpAddDentry:
			op.Name = d.str()
			op.Ino = d.ino()
			op.FType = types.FileType(d.byte())
		case OpDelDentry:
			op.Name = d.str()
		default:
			if d.err != nil {
				return nil, d.err
			}
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, op.Kind)
		}
		if d.err != nil {
			return nil, d.err
		}
		t.Ops = append(t.Ops, op)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes after txn", ErrCorrupt, len(body)-d.off)
	}
	return t, nil
}
