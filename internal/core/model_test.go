package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"testing"

	"arkfs/internal/types"
)

// modelFS is the reference implementation: a map of paths to file contents
// plus a set of directories. It captures the semantics the random-op test
// checks ArkFS against.
type modelFS struct {
	files map[string][]byte
	dirs  map[string]bool
}

func newModelFS() *modelFS {
	return &modelFS{files: map[string][]byte{}, dirs: map[string]bool{"/": true}}
}

func (m *modelFS) parentOK(path string) bool {
	dir, _, err := types.SplitDir(path)
	if err != nil {
		return false
	}
	return m.dirs[types.JoinPath(dir)]
}

func (m *modelFS) children(dir string) []string {
	prefix := dir + "/"
	if dir == "/" {
		prefix = "/"
	}
	var out []string
	seen := map[string]bool{}
	for p := range m.files {
		if rest, ok := cut(p, prefix); ok && rest != "" {
			seen[first(rest)] = true
		}
	}
	for p := range m.dirs {
		if rest, ok := cut(p, prefix); ok && rest != "" {
			seen[first(rest)] = true
		}
	}
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func cut(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

// keptHandle is a handle the random-op test holds open across steps. All the
// kept handles of one path belong to one client: what a client sees through
// a handle while another client writes the file is direct-mode behaviour with
// tests of its own, not something a sequential model pins down.
type keptHandle struct {
	f      *File
	client int
	path   string
	flags  types.OpenFlag
}

// writeAt is pwrite(2) on the model: a write past the end leaves zeros.
func (m *modelFS) writeAt(path string, p []byte, off int) {
	content := m.files[path]
	if need := off + len(p); need > len(content) {
		content = append(content, make([]byte, need-len(content))...)
	}
	copy(content[off:], p)
	m.files[path] = content
}

func first(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return s[:i]
		}
	}
	return s
}

// TestRandomOpsMatchModel drives a long random operation sequence against
// ArkFS (two clients sharing the namespace) and the reference model,
// checking state equivalence as it goes. Each seed is an independent run.
// Besides whole-file operations it keeps a small pool of handles open across
// steps, writes and reads through them later, and reopens a file the moment
// a handle on it closes, from the same client and from the other one.
func TestRandomOpsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tc := newTestCluster(t)
			clients := []*Client{tc.client(t, "m1"), tc.client(t, "m2")}
			model := newModelFS()
			rng := rand.New(rand.NewSource(seed))

			dirPool := []string{"/"}
			filePool := []string{}
			var pool []keptHandle
			// unpublished marks paths written through a kept handle since a
			// Close last pushed the size: until the next one, the leader (stat)
			// and the other client still go by the old size, by design.
			unpublished := map[string]bool{}
			owner := func(path string) int { // client holding path open, or -1
				for _, k := range pool {
					if k.path == path {
						return k.client
					}
				}
				return -1
			}
			readBack := func(step int, c *Client, path string) {
				t.Helper()
				f, err := c.Open(context.Background(), path, types.ORdonly, 0)
				if err != nil {
					t.Fatalf("step %d open %s: %v", step, path, err)
				}
				got, err := io.ReadAll(f)
				_ = f.Close()
				if want := model.files[path]; err != nil || !bytes.Equal(got, want) {
					t.Fatalf("step %d read %s on %s: %d bytes, want %d (%v)", step, path, c.Addr(), len(got), len(want), err)
				}
			}
			name := func() string { return fmt.Sprintf("n%02d", rng.Intn(30)) }
			join := func(dir, n string) string {
				if dir == "/" {
					return "/" + n
				}
				return dir + "/" + n
			}

			for step := 0; step < 400; step++ {
				ci := rng.Intn(len(clients))
				c := clients[ci]
				switch op := rng.Intn(14); op {
				case 0, 1: // mkdir
					path := join(dirPool[rng.Intn(len(dirPool))], name())
					err := c.Mkdir(context.Background(), path, 0777)
					_, fileExists := model.files[path]
					dirExists := model.dirs[path]
					switch {
					case dirExists || fileExists:
						if !errors.Is(err, types.ErrExist) {
							t.Fatalf("step %d mkdir %s: want EEXIST, got %v", step, path, err)
						}
					case !model.parentOK(path):
						if err == nil {
							t.Fatalf("step %d mkdir %s: parent gone, but succeeded", step, path)
						}
					default:
						if err != nil {
							t.Fatalf("step %d mkdir %s: %v", step, path, err)
						}
						model.dirs[path] = true
						dirPool = append(dirPool, path)
					}
				case 2, 3: // create/overwrite a file with random content
					path := join(dirPool[rng.Intn(len(dirPool))], name())
					content := make([]byte, rng.Intn(8000))
					rng.Read(content)
					if owner(path) >= 0 {
						continue // whole-file replacement under a kept handle: not modelled
					}
					f, err := c.Open(context.Background(), path, types.OWronly|types.OCreate|types.OTrunc, 0666)
					if model.dirs[path] {
						if !errors.Is(err, types.ErrIsDir) {
							t.Fatalf("step %d create over dir %s: %v", step, path, err)
						}
						continue
					}
					if !model.parentOK(path) {
						if err == nil {
							t.Fatalf("step %d create %s: parent gone", step, path)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d create %s: %v", step, path, err)
					}
					if _, err := f.Write(content); err != nil {
						t.Fatalf("step %d write %s: %v", step, path, err)
					}
					if err := f.Close(); err != nil {
						t.Fatalf("step %d close %s: %v", step, path, err)
					}
					if _, known := model.files[path]; !known {
						filePool = append(filePool, path)
					}
					model.files[path] = content
				case 4: // read a known file and compare
					if len(filePool) == 0 {
						continue
					}
					path := filePool[rng.Intn(len(filePool))]
					if model.dirs[path] {
						continue // path was reused as a directory
					}
					if _, ok := model.files[path]; !ok {
						if _, err := c.Open(context.Background(), path, types.ORdonly, 0); !isNotExist(err) {
							t.Fatalf("step %d open deleted %s: %v", step, path, err)
						}
						continue
					}
					if unpublished[path] && owner(path) != ci {
						continue
					}
					readBack(step, c, path)
				case 5: // stat and verify size
					if len(filePool) == 0 {
						continue
					}
					path := filePool[rng.Intn(len(filePool))]
					if model.dirs[path] {
						continue
					}
					want, ok := model.files[path]
					if unpublished[path] {
						continue
					}
					st, err := c.Stat(context.Background(), path)
					if !ok {
						if !isNotExist(err) {
							t.Fatalf("step %d stat deleted %s: %v", step, path, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d stat %s: %v", step, path, err)
					}
					if st.Size != int64(len(want)) {
						t.Fatalf("step %d stat %s: size %d, want %d", step, path, st.Size, len(want))
					}
				case 6: // unlink
					if len(filePool) == 0 {
						continue
					}
					path := filePool[rng.Intn(len(filePool))]
					if model.dirs[path] {
						continue
					}
					_, ok := model.files[path]
					if owner(path) >= 0 {
						continue
					}
					err := c.Unlink(context.Background(), path)
					if !ok {
						if !isNotExist(err) {
							t.Fatalf("step %d unlink gone %s: %v", step, path, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d unlink %s: %v", step, path, err)
					}
					delete(model.files, path)
				case 7: // rename a file to a sibling or another directory
					if len(filePool) == 0 {
						continue
					}
					src := filePool[rng.Intn(len(filePool))]
					if model.dirs[src] {
						continue
					}
					content, ok := model.files[src]
					dst := join(dirPool[rng.Intn(len(dirPool))], name())
					if model.dirs[dst] || !ok || !model.parentOK(dst) || dst == src || owner(src) >= 0 || owner(dst) >= 0 {
						continue // skip hairy cases; they have dedicated tests
					}
					if err := c.Rename(context.Background(), src, dst); err != nil {
						t.Fatalf("step %d rename %s -> %s: %v", step, src, dst, err)
					}
					delete(model.files, src)
					model.files[dst] = content
					filePool = append(filePool, dst)
				case 8: // readdir and compare entry names
					dir := dirPool[rng.Intn(len(dirPool))]
					if !model.dirs[dir] {
						continue
					}
					ents, err := c.Readdir(context.Background(), dir)
					if err != nil {
						t.Fatalf("step %d readdir %s: %v", step, dir, err)
					}
					var got []string
					for _, de := range ents {
						got = append(got, de.Name)
					}
					sort.Strings(got)
					want := model.children(dir)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d readdir %s:\n got %v\nwant %v", step, dir, got, want)
					}
				case 9: // truncate
					if len(filePool) == 0 {
						continue
					}
					path := filePool[rng.Intn(len(filePool))]
					content, ok := model.files[path]
					if !ok || owner(path) >= 0 {
						continue
					}
					n := int64(0)
					if len(content) > 0 {
						n = int64(rng.Intn(len(content)))
					}
					if err := c.Truncate(context.Background(), path, n); err != nil {
						t.Fatalf("step %d truncate %s: %v", step, path, err)
					}
					model.files[path] = content[:n]
				case 10: // open a known file and keep the handle
					if len(filePool) == 0 || len(pool) >= 6 {
						continue
					}
					path := filePool[rng.Intn(len(filePool))]
					if _, ok := model.files[path]; !ok || model.dirs[path] {
						continue
					}
					if o := owner(path); o >= 0 {
						ci = o
					}
					flags := []types.OpenFlag{types.ORdonly, types.OWronly, types.OWronly | types.OAppend, types.ORdwr}[rng.Intn(4)]
					f, err := clients[ci].Open(context.Background(), path, flags, 0)
					if err != nil {
						t.Fatalf("step %d open-keep %s: %v", step, path, err)
					}
					pool = append(pool, keptHandle{f: f, client: ci, path: path, flags: flags})
				case 11: // write or append through a kept handle
					if len(pool) == 0 {
						continue
					}
					k := pool[rng.Intn(len(pool))]
					if !k.flags.WantsWrite() {
						continue
					}
					data := make([]byte, 1+rng.Intn(1500))
					rng.Read(data)
					off := rng.Intn(len(model.files[k.path]) + 100)
					var err error
					if k.flags.Has(types.OAppend) {
						off = len(model.files[k.path])
						_, err = k.f.Write(data)
					} else {
						_, err = k.f.WriteAt(data, int64(off))
					}
					if err != nil {
						t.Fatalf("step %d write via kept handle %s: %v", step, k.path, err)
					}
					model.writeAt(k.path, data, off)
					unpublished[k.path] = true
				case 12: // read through a kept handle and compare
					if len(pool) == 0 {
						continue
					}
					k := pool[rng.Intn(len(pool))]
					if !k.flags.WantsRead() {
						continue
					}
					want := model.files[k.path]
					got := make([]byte, len(want)+16)
					n, err := k.f.ReadAt(got, 0)
					if err != io.EOF || !bytes.Equal(got[:n], want) {
						t.Fatalf("step %d read via kept handle %s: %d bytes, want %d (%v)", step, k.path, n, len(want), err)
					}
				case 13: // close a kept handle; half the time reopen at once and read
					if len(pool) == 0 {
						continue
					}
					i := rng.Intn(len(pool))
					k := pool[i]
					pool = append(pool[:i], pool[i+1:]...)
					if err := k.f.Close(); err != nil {
						t.Fatalf("step %d close kept handle %s: %v", step, k.path, err)
					}
					delete(unpublished, k.path) // Close publishes for the whole inode
					if rng.Intn(2) == 0 {
						readBack(step, clients[rng.Intn(len(clients))], k.path)
					}
				}
			}
			for _, k := range pool {
				if err := k.f.Close(); err != nil {
					t.Fatalf("close kept handle %s: %v", k.path, err)
				}
			}

			// Final sweep: every model file matches byte-for-byte from both
			// clients after a full flush.
			for _, c := range clients {
				if err := c.FlushAll(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			for path, want := range model.files {
				f, err := clients[0].Open(context.Background(), path, types.ORdonly, 0)
				if err != nil {
					t.Fatalf("final open %s: %v", path, err)
				}
				got, _ := io.ReadAll(f)
				_ = f.Close()
				if !bytes.Equal(got, want) {
					t.Fatalf("final content %s: %d bytes, want %d", path, len(got), len(want))
				}
			}
		})
	}
}
