package main

import (
	"fmt"
	"runtime"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/core"
	"arkfs/internal/fsapi"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// simSize is one round of sim_rados: a fixed scenario on the simulated RADOS
// cluster. Phase durations are virtual time; how long the simulation takes
// on the wall is a metric of its own.
type simSize struct {
	// Phase A: private-directory creates.
	Clients        int `json:"clients"`
	FilesPerClient int `json:"files_per_client"`
	// Crash leg: this many clients die after the barrier.
	Crashed int `json:"crashed_clients"`
	// Phase B: sequential writers, then fresh readers.
	Streams     int   `json:"streams"`
	StreamBytes int64 `json:"bytes_per_stream"`
}

var (
	simFull  = simSize{Clients: 16, FilesPerClient: 500, Crashed: 4, Streams: 4, StreamBytes: 64 << 20}
	simSmoke = simSize{Clients: 4, FilesPerClient: 20, Crashed: 1, Streams: 2, StreamBytes: 4 << 20}
)

// simCache is the data cache of the streaming clients (the harness's
// deployment default at the commit that defined the benchmark).
var simCache = cache.Config{EntrySize: chunkSize, MaxEntries: 40, MaxReadahead: 8 << 20}

func runSim(rc *roundCtx) (*round, error) {
	sz := simFull
	if rc.smoke {
		sz = simSmoke
	}
	r := &round{rec: rc.rec, virt: true}
	var runErr error
	env := sim.NewVirtEnv()
	env.Run(func() { runErr = simScenario(env, rc, sz, r) })
	return r, runErr
}

// group runs fn(i) for i in [0,n) on tracked goroutines and waits.
func group(env sim.Env, n int, fn func(i int)) {
	g := sim.NewGroup(env)
	for i := 0; i < n; i++ {
		i := i
		g.Go(func() { fn(i) })
	}
	g.Wait()
}

func simScenario(env *sim.VirtEnv, rc *roundCtx, sz simSize, r *round) error {
	// The simulation's wall time is scaled by the reference samples around it
	// (calib.go): around set-up, at the heap reading in its middle, at its end.
	// This goroutine is the only one running when it takes a sample.
	r.cal0 = len(rc.cal.all)
	rc.cal.tick()
	t0 := time.Now()
	d, err := deploySim(env, rc.rec)
	if err != nil {
		return err
	}
	defer d.close()
	mark := func(name string, timed bool) { rc.rec.begin(name, timed, int64(env.Now())) }

	mounts := make([]fsapi.FileSystem, sz.Clients)
	raw := make([]*core.Client, sz.Clients)
	for i := range mounts {
		mounts[i], raw[i] = d.mount(fmt.Sprintf("s%02d", i), simCache)
	}
	if err := mustMkdir(mounts[0], "/sim"); err != nil {
		return err
	}
	dirs := make([]string, sz.Clients)
	paths := make([][]string, sz.Clients)
	errs := make([]error, sz.Clients)
	// Name lengths are the seeded input: they set the size of every journal
	// record and dentry block, which the simulated links and disks charge for.
	const pad = "abcdefghijklmnopqrstuvwx"
	for i := range paths {
		dirs[i] = fmt.Sprintf("/sim/c%02d", i)
		paths[i] = make([]string, sz.FilesPerClient)
		for k := range paths[i] {
			paths[i][k] = fmt.Sprintf("%s/f%06d%s", dirs[i], k, pad[:rc.rng.Intn(len(pad)+1)])
		}
	}
	group(env, sz.Clients, func(i int) {
		if errs[i] = mustMkdir(mounts[i], dirs[i]); errs[i] != nil {
			return
		}
		// Warm-up: one create/stat/unlink through every client.
		var wt tally
		p := dirs[i] + "/warm"
		createEmpty(mounts[i], p, &wt)
		if _, err := mounts[i].Stat(bg, p); err != nil {
			wt.failed++
		}
		if mounts[i].Unlink(bg, p) != nil || mounts[i].FlushAll(bg) != nil || wt.failed > 0 {
			errs[i] = fmt.Errorf("sim_rados warm-up failed on client %d", i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	r.setup = time.Since(t0)
	rc.cal.tick()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	wall0 := time.Now()
	tallies := make([]tally, sz.Clients)
	sum := func() {
		for i := range tallies {
			r.tally.add(tallies[i])
			tallies[i] = tally{}
		}
	}

	// Phase A: every client creates its files in its own directory; the
	// closing FlushAll is the barrier after which the files are acknowledged.
	mark("create", true)
	v0 := env.Now()
	group(env, sz.Clients, func(i int) {
		t := &tallies[i]
		for _, p := range paths[i] {
			createEmpty(mounts[i], p, t)
		}
		t.attempted++
		if mounts[i].FlushAll(bg) != nil {
			t.failed++
		}
	})
	r.phases[0] = phase{name: "create", ops: int64(sz.Clients * sz.FilesPerClient), dur: env.Now() - v0}
	sum()
	mark("between", false)
	// The heap reading forces a collection; its wall time is taken out of the
	// simulation's.
	firstPart := time.Since(wall0)
	r.heap = settledHeap(rc.heapBase)
	rc.cal.tick()
	wall1 := time.Now()

	// Crash leg: the last clients die without flushing or releasing anything.
	// After their leases have run out (virtual time costs nothing) a fresh
	// client must find every file they had acknowledged.
	first := sz.Clients - sz.Crashed
	for i := first; i < sz.Clients; i++ {
		raw[i].Crash()
	}
	env.Sleep(2*simLeasePeriod + simLeasePeriod/2)
	rec, _ := d.mount("recover", simCache)
	mark("recover-stat", true)
	v0 = env.Now()
	var rt tally
	for i := first; i < sz.Clients; i++ {
		for k, p := range paths[i] {
			s0 := env.Now()
			ino, err := rec.Stat(bg, p)
			if k == 0 {
				r.virtRecover += env.Now() - s0
			}
			if err != nil || ino.Type != types.TypeRegular {
				rt.failed++
			}
		}
		rt.attempted += int64(len(paths[i]))
	}
	r.phases[2] = phase{name: "recover-stat", ops: int64(sz.Crashed * sz.FilesPerClient), dur: env.Now() - v0}
	r.virtRecover /= time.Duration(sz.Crashed)
	r.tally.add(rt)
	if rt.failed > 0 {
		r.fail("crash leg: %d of %d acknowledged files not visible after recovery", rt.failed, rt.attempted)
	}
	mark("between", false)
	// A surviving client's directory still lists everything.
	expectDirLen(r, rec, dirs[0], sz.FilesPerClient)

	// Phase B: sequential streams. The RADOS profile keeps data objects by
	// size only, so the check is on sizes, not bytes.
	reqs := sz.StreamBytes / fioReq
	buf := make([]byte, fioReq) // shared: written from, never read back
	mark("stream-write", true)
	v0 = env.Now()
	group(env, sz.Streams, func(i int) {
		t := &tallies[i]
		t.attempted += reqs + 3
		f, err := mounts[i].Open(bg, dirs[i]+"/stream", types.OWronly|types.OCreate|types.OTrunc, 0o644)
		if err != nil {
			t.failed += reqs + 3
			return
		}
		for off := int64(0); off < sz.StreamBytes; off += fioReq {
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
	r.extra = append(r.extra, phase{name: "stream-write", ops: int64(sz.Streams) * reqs, dur: env.Now() - v0})
	r.userBytes = int64(sz.Streams) * sz.StreamBytes
	sum()
	mark("drain", false)
	// The survivors exit: checkpoints over simulated round trips.
	v0 = env.Now()
	group(env, first, func(i int) {
		tallies[i].check(mounts[i].Close() == nil, 1)
	})
	r.drain = env.Now() - v0
	sum()
	mark("between", false)

	readers := make([]fsapi.FileSystem, sz.Streams)
	rbufs := make([][]byte, sz.Streams)
	for i := range readers {
		readers[i], _ = d.mount(fmt.Sprintf("r%02d", i), simCache)
		rbufs[i] = make([]byte, fioReq)
	}
	mark("stream-read", true)
	v0 = env.Now()
	group(env, sz.Streams, func(i int) {
		t := &tallies[i]
		t.attempted += reqs + 2
		f, err := readers[i].Open(bg, dirs[i]+"/stream", types.ORdonly, 0)
		if err != nil || f.Size() != sz.StreamBytes {
			t.failed += reqs + 2
			return
		}
		for off := int64(0); off < sz.StreamBytes; off += fioReq {
			if n, err := f.ReadAt(rbufs[i], off); err != nil || n != fioReq {
				t.failed++
			}
		}
		if f.Close() != nil {
			t.failed++
		}
	})
	r.phases[1] = phase{name: "stream-read", ops: int64(sz.Streams) * reqs, dur: env.Now() - v0}
	sum()
	mark("drain", false)
	v0 = env.Now()
	group(env, sz.Streams+1, func(i int) {
		fs := rec
		if i < sz.Streams {
			fs = readers[i]
		}
		tallies[i].check(fs.Close() == nil, 1)
	})
	r.drain += env.Now() - v0
	sum()
	mark("end", false)
	r.wall = firstPart + time.Since(wall1)
	rc.cal.tick()
	r.cal1 = len(rc.cal.all)
	runtime.ReadMemStats(&m1)
	r.allocBytes, r.allocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	if rc.rec != nil {
		r.snap = d.reg.Snapshot()
		st := d.cluster.Stat()
		r.storedBytes = st.BytesIn.Load()
	}
	return nil
}
