package types

import (
	"io"
	"sync/atomic"
)

// Handle is what a Cursor moves over: an open file's positioned I/O.
type Handle interface {
	io.ReaderAt
	io.WriterAt
	Size() int64
}

// Cursor is an open file's position, the one implementation of Read, Write
// and Seek over a Handle's ReadAt, WriteAt and Size. An O_APPEND write lands
// at Size(), SeekEnd counts from Size(), and a position before 0 is EINVAL.
type Cursor struct{ atomic.Int64 }

// Read reads from the cursor and advances it by what was read.
func (c *Cursor) Read(h Handle, p []byte) (int, error) {
	off := c.Load()
	n, err := h.ReadAt(p, off)
	c.Store(off + int64(n))
	return n, err
}

// Write writes at the cursor, or at the end when appending, and leaves the
// cursor after what was written.
func (c *Cursor) Write(h Handle, p []byte, appending bool) (int, error) {
	off := c.Load()
	if appending {
		off = h.Size()
	}
	n, err := h.WriteAt(p, off)
	c.Store(off + int64(n))
	return n, err
}

// Seek repositions the cursor as io.Seeker does.
func (c *Cursor) Seek(h Handle, offset int64, whence int) (int64, error) {
	var base int64
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		base = c.Load()
	case io.SeekEnd:
		base = h.Size()
	default:
		return 0, ErrInval
	}
	if base+offset < 0 {
		return 0, ErrInval
	}
	c.Store(base + offset)
	return base + offset, nil
}
