package objstore

import (
	"bytes"
	"testing"
)

// A key torn by TearNextRead must stay torn for every verb: once the first
// read observes the short object, Get and GetRange agree on its length until
// the fault is cleared — a reader can never see the full value reappear.
func TestTearNextReadGetRangeConsistency(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	val := []byte("0123456789abcdef")
	if err := fs.Put("d:x", val); err != nil {
		t.Fatal(err)
	}
	fs.TearNextRead("d:", 1)

	got, err := fs.Get("d:x")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(val)/2 {
		t.Fatalf("torn Get length = %d, want %d", len(got), len(val)/2)
	}
	// Every later read of the same key observes the same short object.
	again, err := fs.Get("d:x")
	if err != nil || !bytes.Equal(again, got) {
		t.Fatalf("second Get diverged: %q, %v", again, err)
	}
	// Ranged reads within the torn length serve the torn bytes.
	part, err := fs.GetRange("d:x", 2, 4)
	if err != nil || !bytes.Equal(part, val[2:6]) {
		t.Fatalf("in-range GetRange = %q, %v", part, err)
	}
	// A range crossing the torn boundary is clipped to it.
	part, err = fs.GetRange("d:x", 6, 8)
	if err != nil || !bytes.Equal(part, val[6:8]) {
		t.Fatalf("boundary GetRange = %q, %v", part, err)
	}
	// A range entirely past the torn length sees nothing.
	part, err = fs.GetRange("d:x", 10, 4)
	if err != nil || len(part) != 0 {
		t.Fatalf("past-tear GetRange = %q, %v", part, err)
	}
	// The stored object itself is untouched; a different key is unaffected.
	if err := fs.Put("m:y", []byte("meta")); err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Get("m:y"); err != nil || string(got) != "meta" {
		t.Fatalf("unrelated key affected: %q, %v", got, err)
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1 (a tear is one fault however often it is re-read)", fs.Injected())
	}
}

// GetRange on a torn key must agree with Get even when the range is the
// first read to trigger the tear.
func TestTearNextReadFirstObservedByGetRange(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	if err := fs.Put("d:x", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	fs.TearNextRead("d:", 1)
	part, err := fs.GetRange("d:x", 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(part) != "01234" {
		t.Fatalf("GetRange after tear = %q, want torn half", part)
	}
	full, err := fs.Get("d:x")
	if err != nil || string(full) != "01234" {
		t.Fatalf("Get disagrees with the tear GetRange observed: %q, %v", full, err)
	}
}

// CorruptNext models rot at rest: the flipped bytes persist, so every read —
// including retries — returns the same wrong value.
func TestCorruptNextPersistsAtRest(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	val := []byte("sealed-record-bytes")
	fs.CorruptNext("j:", 1)
	if err := fs.Put("j:rec", val); err != nil {
		t.Fatal(err)
	}
	first, err := fs.Get("j:rec")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(first, val) {
		t.Fatal("CorruptNext left the value intact")
	}
	second, err := fs.Get("j:rec")
	if err != nil || !bytes.Equal(second, first) {
		t.Fatalf("rot at rest not stable across reads: %q vs %q, %v", second, first, err)
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}
}

// SetCorruptReads models a fault on the wire: a corrupted read leaves the
// stored object untouched, so a retry reads clean bytes once the mode is off.
func TestSetCorruptReadsIsTransient(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	val := []byte("clean-bytes")
	if err := fs.Put("k", val); err != nil {
		t.Fatal(err)
	}
	fs.SetCorruptReads("", 1.0, 7) // every read flips
	got, err := fs.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, val) {
		t.Fatal("corrupt read returned clean bytes at probability 1")
	}
	fs.SetCorruptReads("", 0, 0)
	got, err = fs.Get("k")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("retry after disabling did not read clean bytes: %q, %v", got, err)
	}
	if fs.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", fs.Injected())
	}
}

// CorruptNextRead is the deterministic one-shot variant: exactly n reads are
// served flipped, then the store is clean again — no RNG involved.
func TestCorruptNextReadOneShot(t *testing.T) {
	fs := NewFaultStore(NewMemStore())
	val := []byte("payload")
	if err := fs.Put("d:c", val); err != nil {
		t.Fatal(err)
	}
	fs.CorruptNextRead("d:", 1)
	got, err := fs.Get("d:c")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, val) {
		t.Fatal("armed read returned clean bytes")
	}
	got, err = fs.Get("d:c")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("second read should be clean: %q, %v", got, err)
	}
	// GetRange consumes the budget the same way.
	fs.CorruptNextRead("d:", 1)
	part, err := fs.GetRange("d:c", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(part, val[:4]) {
		t.Fatal("armed ranged read returned clean bytes")
	}
	if part, err = fs.GetRange("d:c", 0, 4); err != nil || !bytes.Equal(part, val[:4]) {
		t.Fatalf("ranged retry should be clean: %q, %v", part, err)
	}
	if fs.Injected() != 2 {
		t.Fatalf("injected = %d, want 2", fs.Injected())
	}
}

// A read-side flip lands in a copy: the store lends what it keeps, so a flip
// in the lent bytes would be rot at rest. After a corrupted Get, the next Get
// returns the bytes as put, whether the store kept the buffer or copied it.
func TestCorruptReadLeavesTheObjectAtRest(t *testing.T) {
	want := []byte("intact-payload")
	for name, put := range map[string][]byte{
		"kept":   append([]byte(nil), want...)[:len(want):len(want)],
		"copied": append(make([]byte, 0, 64), want...),
	} {
		t.Run(name, func(t *testing.T) {
			fs := NewFaultStore(NewMemStore())
			if err := fs.Put("d:c", put); err != nil {
				t.Fatal(err)
			}
			fs.CorruptNextRead("d:", 2)
			if got, err := fs.Get("d:c"); err != nil || bytes.Equal(got, want) {
				t.Fatalf("armed Get: %q, %v; want flipped bytes", got, err)
			}
			if got, err := fs.GetRange("d:c", 0, 6); err != nil || bytes.Equal(got, want[:6]) {
				t.Fatalf("armed GetRange: %q, %v; want flipped bytes", got, err)
			}
			if got, err := fs.Get("d:c"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Get after the corrupted reads: %q, %v; want %q", got, err, want)
			}
		})
	}
}
