package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"arkfs/internal/cache"
	"arkfs/internal/fsapi"
	"arkfs/internal/types"
)

const fioReq = 128 << 10

// fioSize is one round of fio_seq. The file is six times the client's data
// cache, so the write and the cold read stream through it; the re-read prefix
// is half the cache, so it stays resident. Writing costs about ten times what
// reading does, so each file is read cold coldPasses times, each time by a
// fresh client, to give the read phase a comparable length.
type fioSize struct {
	RequestBytes int   `json:"request_bytes"`
	CacheEntries int   `json:"cache_entries_of_2MiB"`
	FileBytes    int64 `json:"file_bytes_per_client"`
	ColdPasses   int   `json:"cold_read_passes"`
	PrefixBytes  int64 `json:"reread_prefix_bytes"`
	Rereads      int   `json:"reread_passes"`
}

var (
	fioFull  = fioSize{RequestBytes: fioReq, CacheEntries: 16, FileBytes: 192 << 20, ColdPasses: 6, PrefixBytes: 16 << 20, Rereads: 320}
	fioSmoke = fioSize{RequestBytes: fioReq, CacheEntries: 2, FileBytes: 6 << 20, ColdPasses: 1, PrefixBytes: 2 << 20, Rereads: 1}
)

func fioStamp(salt uint64, c int, off int64) uint64 { return salt ^ uint64(c)<<56 ^ uint64(off) }

func runFio(rc *roundCtx) (*round, error) {
	sz := fioFull
	if rc.smoke {
		sz = fioSmoke
	}
	cc := cache.Config{EntrySize: chunkSize, MaxEntries: sz.CacheEntries, MaxReadahead: 8 << 20}
	w, err := startWall(rc)
	if err != nil {
		return nil, err
	}
	d, r := w.d, w.r
	defer d.close()

	writers := make([]fsapi.FileSystem, loadProcs)
	for i := range writers {
		writers[i], _ = d.mount(fmt.Sprintf("w%d", i), cc)
	}
	if err := mustMkdir(writers[0], "/fio"); err != nil {
		return nil, err
	}
	salt := rc.rng.Uint64()
	payload := make([]byte, fioReq)
	rc.rng.Read(payload)
	paths := make([]string, loadProcs)
	wbufs := make([][]byte, loadProcs)
	rbufs := make([][]byte, loadProcs)
	for c := range paths {
		paths[c] = fmt.Sprintf("/fio/file-%d", c)
		wbufs[c] = append([]byte(nil), payload...)
		rbufs[c] = make([]byte, fioReq)
	}
	// readRange reads [0, n) of f in requests and checks every stamp, and the
	// whole request one time in 64.
	readRange := func(f fsapi.File, c int, n int64, t *tally) {
		buf := rbufs[c]
		for off, k := int64(0), 0; off < n; off, k = off+fioReq, k+1 {
			nr, err := f.ReadAt(buf, off)
			ok := err == nil && nr == fioReq && binary.LittleEndian.Uint64(buf) == fioStamp(salt, c, off)
			if ok && k%64 == 0 {
				ok = bytes.Equal(buf[8:], payload[8:])
			}
			if !ok {
				t.failed++
			}
		}
		t.attempted += n / fioReq
	}
	// Warm-up: a one-chunk file written, synced, read back and removed.
	for c, fs := range writers {
		p := fmt.Sprintf("/fio/warm-%d", c)
		f, err := fs.Open(bg, p, types.ORdwr|types.OCreate|types.OTrunc, 0o644)
		if err != nil {
			return nil, fmt.Errorf("fio_seq warm-up: %w", err)
		}
		for off := int64(0); off < chunkSize; off += fioReq {
			binary.LittleEndian.PutUint64(wbufs[c], fioStamp(salt, c, off))
			if _, err := f.WriteAt(wbufs[c], off); err != nil {
				return nil, fmt.Errorf("fio_seq warm-up: %w", err)
			}
		}
		if err := f.Fsync(bg); err != nil {
			return nil, fmt.Errorf("fio_seq warm-up: %w", err)
		}
		var wt tally
		readRange(f, c, chunkSize, &wt)
		if err := f.Close(); err != nil || wt.failed > 0 {
			return nil, fmt.Errorf("fio_seq warm-up: %d bad reads, close: %v", wt.failed, err)
		}
		if err := fs.Unlink(bg, p); err != nil {
			return nil, fmt.Errorf("fio_seq warm-up: %w", err)
		}
	}
	w.setupDone()

	reqs := sz.FileBytes / fioReq
	r.phases[0] = w.timed("write", int64(loadProcs)*reqs, func(c int, t *tally) {
		buf := wbufs[c]
		f, err := writers[c].Open(bg, paths[c], types.OWronly|types.OCreate|types.OTrunc, 0o644)
		t.attempted += reqs + 3
		if err != nil {
			t.failed += reqs + 3
			return
		}
		for off := int64(0); off < sz.FileBytes; off += fioReq {
			binary.LittleEndian.PutUint64(buf, fioStamp(salt, c, off))
			if n, err := f.WriteAt(buf, off); err != nil || n != fioReq {
				t.failed++
			}
		}
		if f.Fsync(bg) != nil {
			t.failed++
		}
		if f.Close() != nil {
			t.failed++
		}
	})
	r.userBytes = int64(loadProcs) * sz.FileBytes
	w.populated()
	w.mark("drain-writers")
	w.drained(writers...)
	w.mark("between")

	// Fresh clients: nothing of the files is cached. Each load goroutine makes
	// its passes inside one clock: mount, stat, open, read everything, and
	// (but for the last pass, whose handle the re-read uses) close and exit.
	readers := make([]fsapi.FileSystem, loadProcs)
	files := make([]fsapi.File, loadProcs)
	r.phases[1] = w.timed("read", int64(loadProcs*sz.ColdPasses)*reqs, func(c int, t *tally) {
		for pass := 0; pass < sz.ColdPasses; pass++ {
			if pass > 0 {
				t.check(files[c].Close() == nil && readers[c].Close() == nil, 2)
			}
			fs, _ := d.mount(fmt.Sprintf("r%d-%d", pass, c), cc)
			readers[c] = fs
			ino, err := fs.Stat(bg, paths[c])
			t.check(err == nil && ino.Size == sz.FileBytes, 1)
			if files[c], err = fs.Open(bg, paths[c], types.ORdonly, 0); err != nil {
				t.check(false, reqs)
				return
			}
			readRange(files[c], c, sz.FileBytes, t)
		}
	})
	for _, f := range files {
		if f == nil {
			return nil, fmt.Errorf("fio_seq: open for read failed")
		}
	}
	// The cold read left the file's tail in the cache; bring the prefix in.
	for c := range files {
		readRange(files[c], c, sz.PrefixBytes, &r.tally)
	}
	r.phases[2] = w.timed("reread", int64(loadProcs*sz.Rereads)*(sz.PrefixBytes/fioReq), func(c int, t *tally) {
		for p := 0; p < sz.Rereads; p++ {
			readRange(files[c], c, sz.PrefixBytes, t)
		}
	})
	w.mark("drain")
	for _, f := range files {
		r.check(f.Close() == nil, 1)
	}
	w.drained(readers...)
	return w.finish(), nil
}
