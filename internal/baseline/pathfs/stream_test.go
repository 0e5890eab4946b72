package pathfs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/fsapi/fstest"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

func TestGoofysConformance(t *testing.T) {
	m, _ := newMount(t, Goofys)
	fstest.Run(t, m, fstest.LevelObject)
}

func TestSequentialStreamRead(t *testing.T) {
	m, store := newMount(t, Goofys)
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := store.Put("stream", payload); err != nil {
		t.Fatal(err)
	}
	f, err := m.Open(context.Background(), "/stream", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed %d bytes", len(got))
	}
	// The prefetch pipeline should have fetched the object exactly once
	// (the whole window covers it).
	// Re-reading is served from the prefetch buffer.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	again, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("re-read: %d bytes, %v", len(again), err)
	}
	_ = f.Close()
}

func TestWritesBufferedUntilClose(t *testing.T) {
	m, store := newMount(t, Goofys)
	f, err := fsapi.Create(context.Background(), m, "/out", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("buffered")); err != nil {
		t.Fatal(err)
	}
	// Nothing uploaded yet.
	if _, err := store.Get("out"); err == nil {
		t.Fatal("write was not buffered")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get("out")
	if err != nil || string(got) != "buffered" {
		t.Fatalf("after close: %q, %v", got, err)
	}
}

func TestRewriteInvalidatesPrefetch(t *testing.T) {
	m, store := newMount(t, Goofys)
	if err := store.Put("f", []byte("old")); err != nil {
		t.Fatal(err)
	}
	r, err := m.Open(context.Background(), "/f", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := r.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	_ = r.Close()
	// Rewrite through goofys.
	w, err := m.Open(context.Background(), "/f", types.OWronly|types.OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("NEW")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := m.Open(context.Background(), "/f", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	_ = r2.Close()
	if string(buf) != "NEW" {
		t.Fatalf("stale prefetch served: %q", buf)
	}
}

// TestConcurrentReadersShareThePrefetch reads one object from four handles
// on one mount at once: the prefetch buffer they share is filled and read
// under the mount's lock (the race detector checks it).
func TestConcurrentReadersShareThePrefetch(t *testing.T) {
	m, store := newMount(t, Goofys)
	payload := make([]byte, 4<<20)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	if err := store.Put("shared", payload); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := m.Open(context.Background(), "/shared", types.ORdonly, 0)
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			got, err := io.ReadAll(f)
			if err != nil || !bytes.Equal(got, payload) {
				t.Errorf("reader %d: %d bytes, %v", r, len(got), err)
			}
		}()
	}
	wg.Wait()
}

// TestTwoReadersUnderVirtEnv reads one object from two handles on one mount
// under the virtual clock. A store call made while holding the mount's lock
// stalls the other reader's goroutine, and with it the whole simulation.
func TestTwoReadersUnderVirtEnv(t *testing.T) {
	env := sim.NewVirtEnv()
	prof := objstore.S3Profile()
	prof.SizeOnlyPrefix = ""
	done := make(chan error, 1)
	go env.Run(func() {
		cluster := objstore.NewCluster(env, prof)
		defer cluster.Close()
		if err := cluster.Put("obj", make([]byte, 1<<20)); err != nil {
			done <- err
			return
		}
		m := New(env, cluster, Goofys, 0)
		g := sim.NewGroup(env)
		errs := make([]error, 2)
		for r := range errs {
			g.Go(func() {
				f, err := m.Open(context.Background(), "/obj", types.ORdonly, 0)
				if err == nil {
					_, err = io.ReadAll(f)
				}
				errs[r] = err
			})
		}
		g.Wait()
		done <- errors.Join(errs...)
	})
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("two readers of one object hung the simulation")
	}
}
