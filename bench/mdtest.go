package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"arkfs/internal/cache"
	"arkfs/internal/fsapi"
	"arkfs/internal/types"
)

// --- mdtest_easy --------------------------------------------------------------

// easySize is one round of mdtest_easy: each of the two clients works in its
// own leaf directories, so every call is served by the caller's own leader.
type easySize struct {
	Dirs        int `json:"dirs_per_client"`
	FilesPerDir int `json:"files_per_dir"`
	StatPasses  int `json:"stat_passes"`
	Warm        int `json:"warmup_files_per_client"`
}

var (
	easyFull  = easySize{Dirs: 16, FilesPerDir: 2500, StatPasses: 4, Warm: 256}
	easySmoke = easySize{Dirs: 2, FilesPerDir: 50, StatPasses: 2, Warm: 8}
)

func runEasy(rc *roundCtx) (*round, error) {
	sz := easyFull
	if rc.smoke {
		sz = easySmoke
	}
	w, err := startWall(rc)
	if err != nil {
		return nil, err
	}
	d, r := w.d, w.r
	defer d.close()
	d.permCache = true
	mounts := make([]fsapi.FileSystem, loadProcs)
	for i := range mounts {
		mounts[i], _ = d.mount(fmt.Sprintf("c%d", i), cache.Config{})
	}
	if err := mustMkdir(mounts[0], "/easy"); err != nil {
		return nil, err
	}
	n := sz.Dirs * sz.FilesPerDir
	dirs := make([][]string, loadProcs)
	paths := make([][]string, loadProcs) // in creation order: directory by directory
	statOrder := make([][]int32, loadProcs)
	delOrder := make([][]int32, loadProcs)
	for c := range mounts {
		root := fmt.Sprintf("/easy/c%d", c)
		paths[c] = make([]string, 0, n)
		statOrder[c] = make([]int32, 0, n*sz.StatPasses)
		if err := mustMkdir(mounts[c], root, root+"/warm"); err != nil {
			return nil, err
		}
		for k := 0; k < sz.Dirs; k++ {
			dir := fmt.Sprintf("%s/d%02d", root, k)
			if err := mustMkdir(mounts[c], dir); err != nil {
				return nil, err
			}
			dirs[c] = append(dirs[c], dir)
			for i := 0; i < sz.FilesPerDir; i++ {
				paths[c] = append(paths[c], fmt.Sprintf("%s/f%07d", dir, i))
			}
		}
		for p := 0; p < sz.StatPasses; p++ {
			statOrder[c] = append(statOrder[c], shuffled(rc.rng, n)...)
		}
		delOrder[c] = shuffled(rc.rng, n)
		// Warm-up: one small untimed create/stat/delete round per client.
		var wt tally
		for i := 0; i < sz.Warm; i++ {
			createEmpty(mounts[c], fmt.Sprintf("%s/warm/w%04d", root, i), &wt)
		}
		for i := 0; i < sz.Warm; i++ {
			p := fmt.Sprintf("%s/warm/w%04d", root, i)
			if _, err := mounts[c].Stat(bg, p); err != nil {
				wt.failed++
			}
			if err := mounts[c].Unlink(bg, p); err != nil {
				wt.failed++
			}
		}
		if err := mounts[c].FlushAll(bg); err != nil || wt.failed > 0 {
			return nil, fmt.Errorf("mdtest_easy warm-up: %d failed calls, flush: %v", wt.failed, err)
		}
	}
	w.setupDone()

	r.phases[0] = w.timed("create", int64(loadProcs*n), func(c int, t *tally) {
		fs := mounts[c]
		for _, p := range paths[c] {
			createEmpty(fs, p, t)
		}
		flushAll(fs, t)
	})
	w.populated()
	// Output check through a fresh mount: every directory lists all its files.
	v, _ := d.mount("verify-a", cache.Config{})
	for c := range dirs {
		for _, dir := range dirs[c] {
			expectDirLen(r, v, dir, sz.FilesPerDir)
		}
	}
	closeAll(r, v)

	r.phases[1] = w.timed("stat", int64(loadProcs*n*sz.StatPasses), func(c int, t *tally) {
		fs, ps := mounts[c], paths[c]
		for _, i := range statOrder[c] {
			ino, err := fs.Stat(bg, ps[i])
			if err != nil || ino.Size != 0 || ino.Type != types.TypeRegular {
				t.failed++
			}
		}
		t.attempted += int64(len(statOrder[c]))
		flushAll(fs, t)
	})
	r.phases[2] = w.timed("delete", int64(loadProcs*n), func(c int, t *tally) {
		fs, ps := mounts[c], paths[c]
		for _, i := range delOrder[c] {
			if fs.Unlink(bg, ps[i]) != nil {
				t.failed++
			}
		}
		t.attempted += int64(n)
		flushAll(fs, t)
	})
	w.mark("drain")
	w.drained(mounts...)
	w.mark("verify")

	// The namespace is empty, as a fresh mount that has to load the
	// checkpointed directories sees it.
	v, _ = d.mount("verify-b", cache.Config{})
	for c := range dirs {
		for _, dir := range dirs[c] {
			expectDirLen(r, v, dir, 0)
		}
	}
	closeAll(r, v)
	return w.finish(), nil
}

// --- mdtest_hard --------------------------------------------------------------

const hardFileSize = 3901

// hardSize is one round of mdtest_hard: a serving client leads the shared
// directories and two load clients forward every metadata call to it.
type hardSize struct {
	Dirs           int `json:"shared_dirs"`
	FilesPerClient int `json:"files_per_client"`
	FileBytes      int `json:"file_bytes"`
	StatPasses     int `json:"stat_passes"`
	ReadPasses     int `json:"read_passes"`
	Warm           int `json:"warmup_files_per_client"`
	VerifyEvery    int `json:"verify_one_file_in"`
}

var (
	hardFull  = hardSize{Dirs: 4, FilesPerClient: 2000, FileBytes: hardFileSize, StatPasses: 12, ReadPasses: 6, Warm: 64, VerifyEvery: 8}
	hardSmoke = hardSize{Dirs: 2, FilesPerClient: 40, FileBytes: hardFileSize, StatPasses: 2, ReadPasses: 1, Warm: 4, VerifyEvery: 4}
)

// hardStamp is what the first 8 bytes of client c's i-th file hold.
func hardStamp(salt uint64, c, i int) uint64 { return salt ^ uint64(c)<<40 ^ uint64(i) }

func runHard(rc *roundCtx) (*round, error) {
	sz := hardFull
	if rc.smoke {
		sz = hardSmoke
	}
	w, err := startWall(rc)
	if err != nil {
		return nil, err
	}
	d, r := w.d, w.r
	defer d.close()

	leader, _ := d.mount("leader", cache.Config{})
	dirs := make([]string, sz.Dirs)
	if err := mustMkdir(leader, "/hard", "/hard/warm"); err != nil {
		return nil, err
	}
	for k := range dirs {
		dirs[k] = fmt.Sprintf("/hard/s%d", k)
		if err := mustMkdir(leader, dirs[k]); err != nil {
			return nil, err
		}
	}
	// The leader takes (and from then on keeps) every shared directory.
	for _, dir := range append([]string{"/hard/warm"}, dirs...) {
		if _, err := leader.Readdir(bg, dir); err != nil {
			return nil, fmt.Errorf("mdtest_hard: leader readdir %s: %w", dir, err)
		}
	}
	mounts := make([]fsapi.FileSystem, loadProcs)
	for i := range mounts {
		mounts[i], _ = d.mount(string(rune('a'+i)), cache.Config{})
	}
	n := sz.FilesPerClient
	salt := rc.rng.Uint64()
	payload := make([]byte, hardFileSize)
	rc.rng.Read(payload)
	paths := make([][]string, loadProcs)
	bufs := make([][]byte, loadProcs) // per load goroutine: write source, then read target
	statOrder := make([][]int32, loadProcs)
	readOrder := make([][]int32, loadProcs)
	delOrder := make([][]int32, loadProcs)
	for c := range mounts {
		dirOf := shuffled(rc.rng, n)
		paths[c] = make([]string, n)
		for i := range paths[c] {
			paths[c][i] = fmt.Sprintf("%s/%c.%06d", dirs[int(dirOf[i])%sz.Dirs], 'a'+c, i)
		}
		bufs[c] = append([]byte(nil), payload...)
		statOrder[c] = make([]int32, 0, n*sz.StatPasses)
		readOrder[c] = make([]int32, 0, n*sz.ReadPasses)
		for p := 0; p < sz.StatPasses; p++ {
			statOrder[c] = append(statOrder[c], shuffled(rc.rng, n)...)
		}
		for p := 0; p < sz.ReadPasses; p++ {
			readOrder[c] = append(readOrder[c], shuffled(rc.rng, n)...)
		}
		delOrder[c] = shuffled(rc.rng, n)
	}
	writeFile := func(fs fsapi.FileSystem, path string, buf []byte, t *tally) {
		t.attempted++
		f, err := fs.Open(bg, path, types.OWronly|types.OCreate|types.OExcl, 0o644)
		if err != nil {
			t.failed++
			return
		}
		_, werr := f.Write(buf)
		if cerr := f.Close(); werr != nil || cerr != nil {
			t.failed++
		}
	}
	// readFile opens, reads and closes one file and checks its size and stamp;
	// full compares the rest of the payload too.
	readFile := func(fs fsapi.FileSystem, path string, buf []byte, stamp uint64, full bool, t *tally) {
		t.attempted++
		f, err := fs.Open(bg, path, types.ORdonly, 0)
		if err != nil {
			t.failed++
			return
		}
		nr, _ := f.ReadAt(buf[:cap(buf)], 0)
		ok := nr == hardFileSize && binary.LittleEndian.Uint64(buf) == stamp
		if ok && full {
			ok = bytes.Equal(buf[8:nr], payload[8:])
		}
		if cerr := f.Close(); !ok || cerr != nil {
			t.failed++
		}
	}
	// Warm-up: each load client forwards a few creates, reads and deletes.
	for c, fs := range mounts {
		var wt tally
		buf := make([]byte, hardFileSize+1)
		for i := 0; i < sz.Warm; i++ {
			p := fmt.Sprintf("/hard/warm/%c.%04d", 'a'+c, i)
			binary.LittleEndian.PutUint64(bufs[c], hardStamp(salt, c, i))
			writeFile(fs, p, bufs[c], &wt)
			readFile(fs, p, buf, hardStamp(salt, c, i), true, &wt)
			if _, err := fs.Stat(bg, p); err != nil {
				wt.failed++
			}
			if err := fs.Unlink(bg, p); err != nil {
				wt.failed++
			}
		}
		if err := fs.FlushAll(bg); err != nil || wt.failed > 0 {
			return nil, fmt.Errorf("mdtest_hard warm-up: %d failed calls, flush: %v", wt.failed, err)
		}
	}
	w.setupDone()

	r.phases[0] = w.timed("create", int64(loadProcs*n), func(c int, t *tally) {
		fs, buf := mounts[c], bufs[c]
		for i, p := range paths[c] {
			binary.LittleEndian.PutUint64(buf, hardStamp(salt, c, i))
			writeFile(fs, p, buf, t)
		}
		flushAll(fs, t)
	})
	r.userBytes = int64(loadProcs * n * hardFileSize)
	w.populated()
	// Output check through a fresh mount: the file count of every directory,
	// and size and content of one file in verifyEvery.
	v, _ := d.mount("verify-a", cache.Config{})
	perDir := make([]int, sz.Dirs)
	for c := range paths {
		for i := range paths[c] {
			perDir[int(paths[c][i][len("/hard/s")]-'0')]++
		}
	}
	for k, dir := range dirs {
		expectDirLen(r, v, dir, perDir[k])
	}
	vbuf := make([]byte, hardFileSize+1)
	for c := range paths {
		for i := 0; i < n; i += sz.VerifyEvery {
			ino, err := v.Stat(bg, paths[c][i])
			r.check(err == nil && ino.Size == hardFileSize, 1)
			readFile(v, paths[c][i], vbuf, hardStamp(salt, c, i), true, &r.tally)
		}
	}
	closeAll(r, v)

	r.phases[1] = w.timed("stat", int64(loadProcs*n*sz.StatPasses), func(c int, t *tally) {
		fs, ps := mounts[c], paths[c]
		for _, i := range statOrder[c] {
			ino, err := fs.Stat(bg, ps[i])
			if err != nil || ino.Size != hardFileSize {
				t.failed++
			}
		}
		t.attempted += int64(len(statOrder[c]))
	})
	for c := range bufs {
		bufs[c] = make([]byte, hardFileSize+1)
	}
	r.phases[2] = w.timed("read", int64(loadProcs*n*sz.ReadPasses), func(c int, t *tally) {
		// Each client reads the files the other one wrote.
		o := (c + 1) % loadProcs
		fs, ps, buf := mounts[c], paths[o], bufs[c]
		for k, i := range readOrder[c] {
			readFile(fs, ps[i], buf, hardStamp(salt, o, int(i)), k%64 == 0, t)
		}
	})
	r.extra = append(r.extra, w.timed("delete", int64(loadProcs*n), func(c int, t *tally) {
		fs, ps := mounts[c], paths[c]
		for _, i := range delOrder[c] {
			if fs.Unlink(bg, ps[i]) != nil {
				t.failed++
			}
		}
		t.attempted += int64(n)
		flushAll(fs, t)
	}))
	w.mark("drain")
	w.drained(mounts...)
	w.drained(leader)
	w.mark("verify")

	v, _ = d.mount("verify-b", cache.Config{})
	for _, dir := range dirs {
		expectDirLen(r, v, dir, 0)
	}
	closeAll(r, v)
	return w.finish(), nil
}
