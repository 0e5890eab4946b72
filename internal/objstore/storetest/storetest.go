// Package storetest checks, in tests, the ownership rule of objstore.Store: a
// buffer handed to Put, or lent by Get or GetRange, is never written again.
package storetest

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"unsafe"

	"arkfs/internal/objstore"
)

// Guarded is a Store that records a CRC of every buffer that changes hands
// through it, and re-checks them all on Close.
type Guarded struct {
	objstore.Verbs
	inner objstore.Store

	mu   sync.Mutex
	seen map[span]bool
	bufs []handed
}

// span names a buffer by where it starts and how long it is.
type span struct {
	p *byte
	n int
}

type handed struct {
	verb objstore.Verb
	key  string
	b    []byte
	sum  uint32
}

// New wraps inner.
func New(inner objstore.Store) *Guarded {
	g := &Guarded{inner: inner, seen: make(map[span]bool)}
	g.Verbs = g.do
	return g
}

// Guard wraps inner for tb, which fails at its end if a buffer was written
// after it changed hands. A benchmark gets inner itself: what it measures is
// the store's own cost.
func Guard(tb testing.TB, inner objstore.Store) objstore.Store {
	if _, ok := tb.(*testing.B); ok {
		return inner
	}
	g := New(inner)
	tb.Cleanup(func() {
		if err := g.Close(); err != nil {
			tb.Error(err)
		}
	})
	return g
}

func (g *Guarded) do(op objstore.Op) (objstore.Result, error) {
	if op.Verb == objstore.VerbPut {
		g.note(op.Verb, op.Key, op.Data)
	}
	r, err := objstore.Do(g.inner, op)
	if err == nil && (op.Verb == objstore.VerbGet || op.Verb == objstore.VerbGetRange) {
		g.note(op.Verb, op.Key, r.Data)
	}
	return r, err
}

// note records b the first time it changes hands. Holding it keeps its
// memory from being reused for another buffer.
func (g *Guarded) note(verb objstore.Verb, key string, b []byte) {
	if len(b) == 0 {
		return
	}
	s := span{unsafe.SliceData(b), len(b)}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.seen[s] {
		g.seen[s] = true
		g.bufs = append(g.bufs, handed{verb: verb, key: key, b: b, sum: crc32.ChecksumIEEE(b)})
	}
}

// Close re-checks every buffer recorded and reports each one written since.
func (g *Guarded) Close() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	var errs []error
	for _, h := range g.bufs {
		if crc32.ChecksumIEEE(h.b) != h.sum {
			errs = append(errs, fmt.Errorf("storetest: %s %q: its buffer was written after it changed hands", h.verb, h.key))
		}
	}
	return errors.Join(errs...)
}
