package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"arkfs/internal/fsapi"
	"arkfs/internal/obs"
	"arkfs/internal/types"
)

// loadProcs is the number of closed-loop load goroutines of every wall-clock
// workload: each sends its next call only after the previous one returned.
const loadProcs = 2

var bg = context.Background()

// tally counts the calls a load goroutine made and how many failed (returned
// an error or a wrong result). Each goroutine owns one; they are summed after
// the phase.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) { t.attempted += o.attempted; t.failed += o.failed }

// check counts one output check covering ops calls.
func (t *tally) check(ok bool, ops int64) {
	t.attempted += ops
	if !ok {
		t.failed += ops
	}
}

// phase is one timed phase: ops completed in dur (wall time, or virtual time
// in sim_rados).
type phase struct {
	name string
	ops  int64
	dur  time.Duration
}

func (p phase) perSec() float64 {
	if p.dur <= 0 {
		return 0
	}
	return float64(p.ops) / p.dur.Seconds()
}

// round is everything one fixed-size round of a workload produced.
type round struct {
	setup  time.Duration
	phases [3]phase // write, read, phase 3: the gated throughputs
	virt   bool     // the phases are in virtual time (sim_rados)
	extra  []phase  // timed and checked, reported per layer only
	drain  time.Duration
	wall   time.Duration // timed phases + drain; sim_rados: wall time of the whole simulation
	heap   float64       // MiB live after the populate phase
	// cal0 and cal1 bound the reference samples taken during the round, and
	// slow is how many times slower than the reference the box ran around
	// then (calib.go).
	cal0, cal1 int
	slow       float64

	tally
	problems []string // failed output checks, for the operator

	// Traced rounds only.
	rec         *recorder
	snap        obs.Snapshot
	userBytes   int64         // bytes of file data the load wrote
	storedBytes int64         // bytes the base store accounts for after the populate phase
	heldBytes   int64         // the part of storedBytes that is on the heap (not size-only)
	loadTime    time.Duration // summed over load goroutines: time inside timed phases
	allocBytes  uint64
	allocs      uint64
	virtRecover time.Duration // sim_rados crash leg
}

// makespan is what a wall-clock job took: every timed phase and the drain.
func (r *round) makespan() time.Duration {
	d := r.drain
	for _, p := range append(r.phases[:], r.extra...) {
		d += p.dur
	}
	return d
}

func (r *round) fail(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// roundCtx is what a workload gets for one round.
type roundCtx struct {
	rng      *rand.Rand
	smoke    bool
	rec      *recorder // nil: untraced
	cal      *calibrator
	heapBase float64 // MiB the bench process held live before the first round
	// kept is what a workload keeps from one round of a run to the next: input
	// buffers only, so that what generating a round's inputs costs does not
	// depend on what fresh memory costs the box at that moment.
	kept *any
}

// wallRun carries the shared mechanics of a wall-clock round: the deployment,
// timing a phase over the load goroutines, readings outside the clocks.
type wallRun struct {
	d        *deployment
	r        *round
	cal      *calibrator
	t0       time.Time
	heapBase float64
}

// startWall deploys a wall-clock round; set-up time runs from here until
// setupDone. The caller closes w.d.
func startWall(rc *roundCtx) (*wallRun, error) {
	w := &wallRun{r: &round{rec: rc.rec, cal0: len(rc.cal.all)}, cal: rc.cal, heapBase: rc.heapBase}
	w.cal.tick()
	w.t0 = time.Now()
	var err error
	w.d, err = deployWall(rc.rec)
	return w, err
}

func (w *wallRun) setupDone() {
	w.r.setup = time.Since(w.t0)
	w.cal.tick()
}

// mark opens an untimed phase in the trace.
func (w *wallRun) mark(name string) { w.r.rec.begin(name, false, int64(w.d.env.Now())) }

// timed runs fn on the load goroutines, each with its own tally, and returns
// the wall time from the first start to the last return.
func (w *wallRun) timed(name string, ops int64, fn func(i int, t *tally)) phase {
	const n = loadProcs
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var tallies [n]tally
	var busy [n]time.Duration
	w.cal.tick()
	w.r.rec.begin(name, true, int64(w.d.env.Now()))
	var wg sync.WaitGroup
	wg.Add(n)
	start := time.Now()
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			fn(i, &tallies[i])
			busy[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	dur := time.Since(start)
	w.mark("between")
	w.cal.tick()
	runtime.ReadMemStats(&m1)
	for i := range tallies {
		w.r.tally.add(tallies[i])
		w.r.loadTime += busy[i]
	}
	w.r.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	w.r.allocs += m1.Mallocs - m0.Mallocs
	return phase{name: name, ops: ops, dur: dur}
}

// drained closes the job's own mounts inside the drain clock.
func (w *wallRun) drained(mounts ...fsapi.FileSystem) {
	w.cal.tick()
	start := time.Now()
	closeAll(w.r, mounts...)
	w.r.drain += time.Since(start)
	w.cal.tick()
}

// populated takes the readings due at the end of the populate phase, outside
// every clock: the live heap, and in a traced round what the store holds.
func (w *wallRun) populated() {
	w.r.heap = settledHeap(w.heapBase)
	if w.r.rec != nil {
		w.r.storedBytes = w.d.storedBytes()
		w.r.heldBytes = w.r.storedBytes
	}
}

// finish closes the round's books once every client is closed and checked.
func (w *wallRun) finish() *round {
	w.mark("end")
	w.r.wall = w.r.makespan()
	w.r.cal1 = len(w.cal.all)
	if w.r.rec != nil {
		w.r.snap = w.d.reg.Snapshot()
	}
	return w.r
}

// liveHeap collects garbage and returns the live heap in MiB over base (what
// the bench process itself held before the first round). It runs outside
// every clock.
func liveHeap(base float64) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)/(1<<20) - base
}

// settledHeap is liveHeap once what the phase left running has finished:
// closing a written file leaves a goroutine behind that writes the file's
// 2 MiB cache entry back and then drops it, and sealed journal records are
// held until their checkpoint is applied. How much of that is still alive
// when a phase ends is a matter of timing, not of the program's memory use
// (mdtest_easy read 40 to 75 MiB from round to round, and 40.1 every time once
// settled). It reads every 50 ms until two readings agree to 0.2%, for a
// second at most.
func settledHeap(base float64) float64 {
	h := liveHeap(base)
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		next := liveHeap(base)
		if d := next - h; d <= 0.002*h && -d <= 0.002*h {
			return next
		}
		h = next
	}
	return h
}

// closeAll closes the mounts concurrently (one goroutine each, as the
// processes of a batch job exit together).
func closeAll(r *round, mounts ...fsapi.FileSystem) {
	errs := make([]error, len(mounts))
	var wg sync.WaitGroup
	wg.Add(len(mounts))
	for i, m := range mounts {
		go func(i int, m fsapi.FileSystem) {
			defer wg.Done()
			errs[i] = m.Close()
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		r.check(err == nil, 1)
		if err != nil {
			r.fail("close: %v", err)
		}
	}
}

// mustMkdir creates directories during set-up; a failure aborts the round.
func mustMkdir(fs fsapi.FileSystem, paths ...string) error {
	for _, p := range paths {
		if err := fs.Mkdir(bg, p, 0o777); err != nil {
			return fmt.Errorf("setup mkdir %s: %w", p, err)
		}
	}
	return nil
}

// expectDirLen checks through fs that dir holds exactly want entries.
func expectDirLen(r *round, fs fsapi.FileSystem, dir string, want int) {
	ents, err := fs.Readdir(bg, dir)
	ok := err == nil && len(ents) == want
	r.check(ok, 1)
	if !ok {
		r.fail("readdir %s: %d entries, want %d (err %v)", dir, len(ents), want, err)
	}
}

// createEmpty is open(O_CREAT|O_EXCL|O_WRONLY) + close.
func createEmpty(fs fsapi.FileSystem, path string, t *tally) {
	t.attempted++
	f, err := fs.Open(bg, path, types.OWronly|types.OCreate|types.OExcl, 0o644)
	if err != nil {
		t.failed++
		return
	}
	if f.Close() != nil {
		t.failed++
	}
}

// flushAll is the fsync that ends an mdtest phase, inside its clock.
func flushAll(fs fsapi.FileSystem, t *tally) {
	t.attempted++
	if fs.FlushAll(bg) != nil {
		t.failed++
	}
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
