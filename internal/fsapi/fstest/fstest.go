// Package fstest provides a reusable conformance suite run against every
// fsapi.FileSystem implementation (ArkFS and all baselines), so the
// benchmark harness can rely on uniform semantics.
package fstest

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"arkfs/internal/fsapi"
	"arkfs/internal/types"
)

// Level selects how much of the POSIX surface a system claims to support.
type Level int

// Conformance levels.
const (
	// LevelPOSIX: directory semantics, error codes, rename, the works
	// (ArkFS, cephsim, marfssim).
	LevelPOSIX Level = iota
	// LevelObject: path-as-key systems with relaxed semantics (pathfs's
	// S3FS and Goofys): no strict error-code guarantees on edge cases.
	LevelObject
)

// Run exercises the common contract on fs.
func Run(t *testing.T, fs fsapi.FileSystem, level Level) {
	t.Helper()
	ctx := context.Background()

	// Tree building.
	if err := fs.Mkdir(ctx, "/dir", 0755); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := fs.Mkdir(ctx, "/dir/sub", 0755); err != nil {
		t.Fatalf("mkdir nested: %v", err)
	}

	// Create, write, stat.
	f, err := fsapi.Create(ctx, fs, "/dir/file.txt", 0644)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := bytes.Repeat([]byte("0123456789abcdef"), 256) // 4 KiB
	if _, err := f.Write(payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Fsync(ctx); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, err := fs.Stat(ctx, "/dir/file.txt")
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if st.Size != int64(len(payload)) {
		t.Fatalf("stat size = %d, want %d", st.Size, len(payload))
	}
	if st.Type != types.TypeRegular {
		t.Fatalf("stat type = %v", st.Type)
	}

	// Read back sequentially.
	r, err := fs.Open(ctx, "/dir/file.txt", types.ORdonly, 0)
	if err != nil {
		t.Fatalf("open ro: %v", err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("readall: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %d bytes != written %d", len(got), len(payload))
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close ro: %v", err)
	}

	// Random access.
	r2, err := fs.Open(ctx, "/dir/file.txt", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	if _, err := r2.ReadAt(buf, 16); err != nil && err != io.EOF {
		t.Fatalf("readat: %v", err)
	}
	if !bytes.Equal(buf, payload[16:32]) {
		t.Fatalf("readat data mismatch: %q", buf)
	}
	_ = r2.Close()

	// Readdir sees the file and subdirectory.
	ents, err := fs.Readdir(ctx, "/dir")
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	names := map[string]types.FileType{}
	for _, de := range ents {
		names[de.Name] = de.Type
	}
	if names["file.txt"] != types.TypeRegular || names["sub"] != types.TypeDir {
		t.Fatalf("readdir = %v", names)
	}

	// Stat of missing entries.
	if _, err := fs.Stat(ctx, "/dir/ghost"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("stat missing: %v", err)
	}
	if _, err := fs.Open(ctx, "/dir/ghost", types.ORdonly, 0); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("open missing: %v", err)
	}

	// O_EXCL.
	if _, err := fs.Open(ctx, "/dir/file.txt", types.OWronly|types.OCreate|types.OExcl, 0644); !errors.Is(err, types.ErrExist) {
		t.Fatalf("o_excl on existing: %v", err)
	}

	// Rename within a directory.
	if err := fs.Rename(ctx, "/dir/file.txt", "/dir/renamed.txt"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if _, err := fs.Stat(ctx, "/dir/file.txt"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("old name after rename: %v", err)
	}
	st2, err := fs.Stat(ctx, "/dir/renamed.txt")
	if err != nil || st2.Size != int64(len(payload)) {
		t.Fatalf("renamed stat: %+v, %v", st2, err)
	}
	// Content survives the rename.
	r3, err := fs.Open(ctx, "/dir/renamed.txt", types.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	got3, _ := io.ReadAll(r3)
	_ = r3.Close()
	if !bytes.Equal(got3, payload) {
		t.Fatalf("content after rename: %d bytes", len(got3))
	}

	// Unlink and directory cleanup.
	if err := fs.Unlink(ctx, "/dir/renamed.txt"); err != nil {
		t.Fatalf("unlink: %v", err)
	}
	if _, err := fs.Stat(ctx, "/dir/renamed.txt"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("stat after unlink: %v", err)
	}
	if level == LevelPOSIX {
		if err := fs.Rmdir(ctx, "/dir"); !errors.Is(err, types.ErrNotEmpty) {
			t.Fatalf("rmdir non-empty: %v", err)
		}
	}
	if err := fs.Rmdir(ctx, "/dir/sub"); err != nil {
		t.Fatalf("rmdir sub: %v", err)
	}
	if err := fs.Rmdir(ctx, "/dir"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}

	// The cursor: SeekEnd counts an unflushed write; a position before 0 is
	// EINVAL.
	c, err := fsapi.Create(ctx, fs, "/cursor", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	if pos, err := c.Seek(0, io.SeekEnd); err != nil || pos != 10 {
		t.Fatalf("seek end after an unflushed write: %d, %v", pos, err)
	}
	if pos, err := c.Seek(-100, io.SeekCurrent); !errors.Is(err, types.ErrInval) {
		t.Fatalf("seek before 0: %d, %v", pos, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Unlink(ctx, "/cursor"); err != nil {
		t.Fatal(err)
	}

	// Overwrite shrinks with O_TRUNC.
	w, err := fs.Open(ctx, "/trunc", types.OWronly|types.OCreate, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("long content here")); err != nil {
		t.Fatal(err)
	}
	_ = w.Close()
	w2, err := fs.Open(ctx, "/trunc", types.OWronly|types.OCreate|types.OTrunc, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write([]byte("tiny")); err != nil {
		t.Fatal(err)
	}
	_ = w2.Close()
	if err := fs.FlushAll(ctx); err != nil {
		t.Fatalf("flushall: %v", err)
	}
	st3, err := fs.Stat(ctx, "/trunc")
	if err != nil || st3.Size != 4 {
		t.Fatalf("after trunc rewrite: %+v, %v", st3, err)
	}
	if err := fs.Unlink(ctx, "/trunc"); err != nil {
		t.Fatal(err)
	}
}
