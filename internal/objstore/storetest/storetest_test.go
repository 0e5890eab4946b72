package storetest

import (
	"strings"
	"testing"

	"arkfs/internal/objstore"
)

func TestGuardPassesTheRule(t *testing.T) {
	g := New(objstore.NewMemStore())
	for _, b := range [][]byte{[]byte("tight"), make([]byte, 3, 64)} {
		if err := g.Put("k", b); err != nil {
			t.Fatal(err)
		}
		got, err := g.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(got))
		copy(buf, got) // reading a lent buffer is what it is for
		if _, err := g.GetRange("k", 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
}

// A deliberate write into a handed-over buffer and into a lent one: each is
// reported.
func TestGuardCatchesWritesAfterTheHandOver(t *testing.T) {
	t.Run("into a Put's buffer", func(t *testing.T) {
		g := New(objstore.NewMemStore())
		b := make([]byte, 8, 16) // slack: the store copies, the write corrupts nothing yet breaks the rule
		if err := g.Put("k", b); err != nil {
			t.Fatal(err)
		}
		b[3] = 1
		if err := g.Close(); err == nil || !strings.Contains(err.Error(), `put "k"`) {
			t.Fatalf("Close = %v, want the put of k reported", err)
		}
	})
	t.Run("into a Get's buffer", func(t *testing.T) {
		g := New(objstore.NewMemStore())
		// Slack, so the store lends a copy of its own: the write is the Get's.
		if err := g.Put("k", append(make([]byte, 0, 16), "stored"...)); err != nil {
			t.Fatal(err)
		}
		got, err := g.Get("k")
		if err != nil {
			t.Fatal(err)
		}
		got[0] = 'S'
		if err := g.Close(); err == nil || !strings.Contains(err.Error(), `get "k"`) {
			t.Fatalf("Close = %v, want the get of k reported", err)
		}
	})
}
