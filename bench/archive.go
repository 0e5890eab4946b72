package main

import (
	"archive/tar"
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"arkfs/internal/cache"
	"arkfs/internal/fsapi"
	"arkfs/internal/types"
)

// archSize is one round of archive_tree, per process: a dataset of files with
// log-uniform sizes laid out filesPerDir to a directory under top × sub
// directories (the paper's §IV-D scenario, with a tree in place of its flat
// category directories so that directories come and go by the hundred).
//
// Archiving a file costs some twenty times what reading it back does, so the
// tree is unarchived readPasses times and scanned scanPasses times, each time
// by a fresh client per process that has to take the directories over, to
// give those phases a comparable length.
type archSize struct {
	Top         int     `json:"top_dirs_per_process"`
	Sub         int     `json:"sub_dirs_per_top_dir"`
	FilesPerDir int     `json:"files_per_dir"`
	MinBytes    float64 `json:"min_file_bytes"`
	MaxBytes    float64 `json:"max_file_bytes"`
	ReadPasses  int     `json:"unarchive_passes"`
	ScanPasses  int     `json:"scan_passes"`
}

var (
	archFull  = archSize{Top: 8, Sub: 10, FilesPerDir: 20, MinBytes: 2 << 10, MaxBytes: 96 << 10, ReadPasses: 8, ScanPasses: 16}
	archSmoke = archSize{Top: 2, Sub: 2, FilesPerDir: 5, MinBytes: 2 << 10, MaxBytes: 96 << 10, ReadPasses: 2, ScanPasses: 2}
)

// archEntry is one member of the dataset, in tar order: directories before
// what they hold.
type archEntry struct {
	name  string // inside the tar
	path  string // in the file system
	dir   bool
	off   int // file content is pool[off:off+size]
	size  int
	depth int
}

// archDataset is one process's seeded dataset and its tar image.
type archDataset struct {
	root    string
	entries []archEntry
	byPath  map[string]*archEntry
	files   int
	dirs    int
	bytes   int64
	image   []byte
}

const archPoolBytes = 1 << 20

// archKept are the input buffers archive_tree reuses from round to round: the
// pool file contents are cut from, and each process's tar image.
type archKept struct {
	pool   []byte
	images [loadProcs]bytes.Buffer
}

func buildDataset(rc *roundCtx, sz archSize, proc int, pool []byte, img *bytes.Buffer) (*archDataset, error) {
	ds := &archDataset{root: fmt.Sprintf("/arch/p%d", proc), byPath: map[string]*archEntry{}}
	nFiles := sz.Top * sz.Sub * sz.FilesPerDir
	// Stratified log-uniform sizes: file k of the shuffled order draws from the
	// k-th of nFiles equal slices of the range, so every seed's dataset has
	// nearly the same total and the metrics of two seeds are comparable.
	order := shuffled(rc.rng, nFiles)
	ratio := sz.MaxBytes / sz.MinBytes
	i := 0
	for a := 0; a < sz.Top; a++ {
		tn := fmt.Sprintf("t%d", a)
		ds.entries = append(ds.entries, archEntry{name: tn + "/", path: ds.root + "/" + tn, dir: true, depth: 1})
		for b := 0; b < sz.Sub; b++ {
			sn := fmt.Sprintf("%s/s%02d", tn, b)
			ds.entries = append(ds.entries, archEntry{name: sn + "/", path: ds.root + "/" + sn, dir: true, depth: 2})
			for f := 0; f < sz.FilesPerDir; f++ {
				u := (float64(order[i]) + rc.rng.Float64()) / float64(nFiles)
				size := int(sz.MinBytes * math.Pow(ratio, u))
				fn := fmt.Sprintf("%s/f%06d", sn, i)
				ds.entries = append(ds.entries, archEntry{name: fn, path: ds.root + "/" + fn,
					off: rc.rng.Intn(archPoolBytes - size), size: size})
				ds.bytes += int64(size)
				i++
			}
		}
	}
	ds.files, ds.dirs = nFiles, len(ds.entries)-nFiles
	img.Reset()
	tw := tar.NewWriter(img)
	for k := range ds.entries {
		e := &ds.entries[k]
		ds.byPath[e.path] = e
		hdr := &tar.Header{Name: e.name, Mode: 0o644, Size: int64(e.size), Typeflag: tar.TypeReg}
		if e.dir {
			hdr.Typeflag, hdr.Mode = tar.TypeDir, 0o755
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return nil, err
		}
		if _, err := tw.Write(pool[e.off : e.off+e.size]); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	ds.image = img.Bytes()
	return ds, nil
}

// archive is the Archiving scenario of one process: move the tar image in,
// extract it into the tree, remove the tar, make everything durable.
func archive(fs fsapi.FileSystem, ds *archDataset, buf []byte, t *tally) {
	tarPath := ds.root + "/dataset.tar"
	t.attempted += int64(ds.files+ds.dirs) + 4
	bad := func(err error) bool {
		if err != nil {
			t.failed++
		}
		return err != nil
	}
	dst, err := fs.Open(bg, tarPath, types.OWronly|types.OCreate|types.OTrunc, 0o644)
	if bad(err) {
		return
	}
	for off := 0; off < len(ds.image); off += fioReq {
		end := min(off+fioReq, len(ds.image))
		if _, err := dst.Write(ds.image[off:end]); bad(err) {
			return
		}
	}
	bad(dst.Fsync(bg))
	bad(dst.Close())

	in, err := fs.Open(bg, tarPath, types.ORdonly, 0)
	if bad(err) {
		return
	}
	tr := tar.NewReader(bufio.NewReaderSize(in, fioReq))
	for k := range ds.entries {
		e := &ds.entries[k]
		hdr, err := tr.Next()
		if err != nil || hdr.Name != e.name {
			t.failed++
			break
		}
		if e.dir {
			bad(fs.Mkdir(bg, e.path, 0o755))
			continue
		}
		if _, err := io.ReadFull(tr, buf[:e.size]); bad(err) {
			break
		}
		out, err := fs.Open(bg, e.path, types.OWronly|types.OCreate|types.OExcl, 0o644)
		if bad(err) {
			continue
		}
		_, werr := out.Write(buf[:e.size])
		if cerr := out.Close(); werr != nil || cerr != nil {
			t.failed++
		}
	}
	bad(in.Close())
	bad(fs.Unlink(bg, tarPath))
	bad(fs.FlushAll(bg))
}

// unarchive is the Unarchiving scenario: walk the tree as Readdir shows it and
// stream every file into a tar writer whose output is discarded. Every file's
// bytes are compared with the dataset's.
func unarchive(fs fsapi.FileSystem, ds *archDataset, pool, buf []byte, t *tally) {
	tw := tar.NewWriter(io.Discard)
	files := 0
	var walk func(dir string, depth int)
	walk = func(dir string, depth int) {
		t.attempted++
		ents, err := fs.Readdir(bg, dir)
		if err != nil {
			t.failed++
			return
		}
		for _, de := range ents {
			p := dir + "/" + de.Name
			if de.Type == types.TypeDir {
				walk(p, depth+1)
				continue
			}
			t.attempted++
			e := ds.byPath[p]
			f, err := fs.Open(bg, p, types.ORdonly, 0)
			if err != nil || e == nil {
				t.failed++
				continue
			}
			n, _ := f.ReadAt(buf, 0)
			ok := n == e.size && int64(n) == f.Size() && bytes.Equal(buf[:n], pool[e.off:e.off+e.size])
			if ok {
				hdr := tar.Header{Name: p[len(ds.root)+1:], Mode: 0o644, Size: int64(n), Typeflag: tar.TypeReg}
				ok = tw.WriteHeader(&hdr) == nil
				if ok {
					_, err = tw.Write(buf[:n])
					ok = err == nil
				}
			}
			if cerr := f.Close(); !ok || cerr != nil {
				t.failed++
			}
			files++
		}
	}
	walk(ds.root, 0)
	t.check(tw.Close() == nil && files == ds.files, 1)
}

// scan walks the tree the way find or ls -lR does: Readdir every directory,
// Stat every entry, and check type and size against the dataset.
func scan(fs fsapi.FileSystem, ds *archDataset, t *tally) {
	seen := 0
	var walk func(dir string)
	walk = func(dir string) {
		t.attempted++
		ents, err := fs.Readdir(bg, dir)
		if err != nil {
			t.failed++
			return
		}
		for _, de := range ents {
			p := dir + "/" + de.Name
			t.attempted++
			ino, err := fs.Stat(bg, p)
			e := ds.byPath[p]
			if err != nil || e == nil || ino.IsDir() != e.dir || (!e.dir && ino.Size != int64(e.size)) {
				t.failed++
				continue
			}
			seen++
			if e.dir {
				walk(p)
			}
		}
	}
	walk(ds.root)
	t.check(seen == len(ds.entries), 1)
}

// purge removes the tree bottom-up and makes the removal durable.
func purge(fs fsapi.FileSystem, ds *archDataset, t *tally) {
	t.attempted += int64(len(ds.entries)) + 1
	for k := range ds.entries {
		if e := &ds.entries[k]; !e.dir && fs.Unlink(bg, e.path) != nil {
			t.failed++
		}
	}
	for depth := 2; depth >= 1; depth-- {
		for k := range ds.entries {
			if e := &ds.entries[k]; e.dir && e.depth == depth && fs.Rmdir(bg, e.path) != nil {
				t.failed++
			}
		}
	}
	if fs.FlushAll(bg) != nil {
		t.failed++
	}
}

func runArchive(rc *roundCtx) (*round, error) {
	sz := archFull
	if rc.smoke {
		sz = archSmoke
	}
	w, err := startWall(rc)
	if err != nil {
		return nil, err
	}
	d, r := w.d, w.r
	defer d.close()

	kept, _ := (*rc.kept).(*archKept)
	if kept == nil {
		kept = &archKept{pool: make([]byte, archPoolBytes)}
		*rc.kept = kept
	}
	pool := kept.pool
	rc.rng.Read(pool)
	sets := make([]*archDataset, loadProcs)
	bufs := make([][]byte, loadProcs)
	archivers := make([]fsapi.FileSystem, loadProcs)
	for c := range sets {
		if sets[c], err = buildDataset(rc, sz, c, pool, &kept.images[c]); err != nil {
			return nil, fmt.Errorf("archive_tree: build dataset: %w", err)
		}
		r.userBytes += sets[c].bytes + int64(len(sets[c].image))
		bufs[c] = make([]byte, int(sz.MaxBytes)+1)
		archivers[c], _ = d.mount(fmt.Sprintf("a%d", c), cache.Config{})
	}
	// A mount that outlives the processes (the node's own, say) leads "/" and
	// "/arch" throughout, so the churn of clients coming and going is in the
	// dataset trees and not in who answers for their shared ancestors.
	admin, _ := d.mount("admin", cache.Config{})
	if err := mustMkdir(admin, "/arch"); err != nil {
		return nil, err
	}
	for c, fs := range archivers {
		if err := mustMkdir(admin, sets[c].root, sets[c].root+"-warm"); err != nil {
			return nil, err
		}
		// Warm-up: one small file through create, write, read, unlink.
		p := sets[c].root + "-warm/f"
		var wt tally
		f, err := fs.Open(bg, p, types.ORdwr|types.OCreate, 0o644)
		if err != nil {
			return nil, fmt.Errorf("archive_tree warm-up: %w", err)
		}
		_, werr := f.Write(pool[:4096])
		n, _ := f.ReadAt(bufs[c][:4096], 0)
		wt.check(werr == nil && n == 4096 && f.Close() == nil && fs.Unlink(bg, p) == nil && fs.FlushAll(bg) == nil, 1)
		if wt.failed > 0 {
			return nil, fmt.Errorf("archive_tree warm-up failed")
		}
	}
	w.setupDone()

	files := int64(loadProcs * sets[0].files)
	r.phases[0] = w.timed("archive", files, func(c int, t *tally) {
		archive(archivers[c], sets[c], bufs[c], t)
	})
	w.populated()
	// The kept input buffers are the benchmark's, not the program's or the
	// store's, and how far a tar image's buffer grew is an accident of the
	// first round's dataset.
	held := cap(kept.pool)
	for c := range kept.images {
		held += kept.images[c].Cap()
	}
	r.heap -= float64(held) / (1 << 20)
	// The archiving processes exit; whoever reads the archive later starts
	// from what they left in the store.
	w.mark("drain-archivers")
	w.drained(archivers...)
	w.mark("between")
	// passes has every load goroutine run fn n times inside one clock, each
	// time on a fresh client that it mounts, and closes before the next one,
	// inside the clock too: a process that starts, reads and exits. The last
	// client stays mounted for the phase that follows.
	readers := make([]fsapi.FileSystem, loadProcs)
	passes := func(name string, n int, ops int64, fn func(fs fsapi.FileSystem, c int, t *tally)) phase {
		return w.timed(name, int64(n)*ops, func(c int, t *tally) {
			for k := 0; k < n; k++ {
				if readers[c] != nil {
					t.check(readers[c].Close() == nil, 1)
				}
				readers[c], _ = d.mount(fmt.Sprintf("%s%d-%d", name[:1], k, c), cache.Config{})
				fn(readers[c], c, t)
			}
		})
	}
	r.phases[1] = passes("unarchive", sz.ReadPasses, files, func(fs fsapi.FileSystem, c int, t *tally) {
		unarchive(fs, sets[c], pool, bufs[c], t)
	})
	r.phases[2] = passes("scan", sz.ScanPasses, int64(loadProcs*len(sets[0].entries)), func(fs fsapi.FileSystem, c int, t *tally) {
		scan(fs, sets[c], t)
	})
	r.extra = append(r.extra, w.timed("purge", int64(loadProcs*len(sets[0].entries)), func(c int, t *tally) {
		purge(readers[c], sets[c], t)
	}))
	w.mark("drain")
	w.drained(readers...)
	w.drained(admin)
	w.mark("verify")

	v, _ := d.mount("verify", cache.Config{})
	for c := range sets {
		expectDirLen(r, v, sets[c].root, 0)
	}
	closeAll(r, v)
	return w.finish(), nil
}
