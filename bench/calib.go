package main

import (
	"hash/crc32"
	"math/rand"
	"sync"
	"time"
)

// The speed reference. The box this benchmark was defined on is a 2-vCPU
// guest whose speed moves with what its neighbours do: the same code runs up
// to twice as slowly, for seconds or for an hour at a time, and no estimator
// over the run's own values can remove that. So every run times, right before
// and right after each of its clocks, a fixed piece of work that is no part of
// the program: a dependent walk through 16 MiB (memory latency), a
// clear-and-copy sweep over 8 MiB (memory bandwidth) and a CRC over a buffer
// that fits the L2 cache (arithmetic), on loadProcs goroutines at once as the
// load itself runs. A wall-clock end-to-end value is reported at reference
// speed: what the round's clocks measured, scaled by the median of the samples
// taken around then (scaleRounds) over refSeconds, and then the median over the
// run's rounds. Pairing each round with the samples next to it is what makes
// this work when the box changes speed within a run, as it does. Virtual-time metrics, the heap and
// every per-layer metric are reported as measured; proc.box_slowdown is the
// run's median factor.

const (
	// refSeconds is what the reference work takes at reference speed (the
	// defining box in its usual state).
	refSeconds = 0.100
	// refFresh is how old a sample may be and still describe the box now: a
	// clock that starts right after another one ended shares its sample.
	refFresh = 10 * time.Millisecond
)

// calibSize is how much reference work one sample is.
type calibSize struct {
	chaseSlots, chaseSteps  int // uint32 slots walked through
	sweepBytes, sweepPasses int
	crcBytes, crcPasses     int
}

var (
	calibFull = calibSize{chaseSlots: 4 << 20, chaseSteps: 200_000, sweepBytes: 8 << 20, sweepPasses: 16, crcBytes: 256 << 10, crcPasses: 1600}
	// Smoke scale reports at whatever speed a tiny sample suggests: the tier-1
	// test checks that the metrics come out, not what they are.
	calibSmoke = calibSize{chaseSlots: 4 << 10, chaseSteps: 2000, sweepBytes: 64 << 10, sweepPasses: 2, crcBytes: 4 << 10, crcPasses: 16}
)

// calibrator holds the reference work's buffers, allocated once per run and
// outside every clock.
type calibrator struct {
	sz    calibSize
	next  []uint32
	bufs  [loadProcs][2][]byte
	small []byte
	sink  [loadProcs]uint32 // keeps the work's results alive

	all     []refSample // every sample of the run
	lastEnd time.Time   // when the latest one ended
}

func newCalibrator(smoke bool) *calibrator {
	sz := calibFull
	if smoke {
		sz = calibSmoke
	}
	c := &calibrator{sz: sz, next: make([]uint32, sz.chaseSlots), small: make([]byte, sz.crcBytes)}
	// One cycle through every slot in a fixed random order (Sattolo's shuffle).
	rng := rand.New(rand.NewSource(20260926))
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := len(c.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	rng.Read(c.small)
	for g := range c.bufs {
		c.bufs[g][0] = make([]byte, sz.sweepBytes)
		c.bufs[g][1] = make([]byte, sz.sweepBytes)
	}
	return c
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// refSample is what one run of the reference work took, stage by stage (walk,
// sweep, CRC), in seconds: the mean over the goroutines of what each one
// measured for itself.
type refSample [3]float64

// sample runs the reference work once.
func (c *calibrator) sample() refSample {
	var took [loadProcs]refSample
	var wg sync.WaitGroup
	wg.Add(loadProcs)
	for g := 0; g < loadProcs; g++ {
		go func(g int) {
			defer wg.Done()
			t0 := time.Now()
			p := uint32(g * (c.sz.chaseSlots / loadProcs))
			for i := 0; i < c.sz.chaseSteps; i++ {
				p = c.next[p]
			}
			t1 := time.Now()
			a, b := c.bufs[g][0], c.bufs[g][1]
			for i := 0; i < c.sz.sweepPasses; i++ {
				clear(a)
				a[i] = byte(p)
				copy(b, a)
			}
			t2 := time.Now()
			x := uint32(b[0])
			for i := 0; i < c.sz.crcPasses; i++ {
				x = crc32.Update(x, castagnoli, c.small)
			}
			c.sink[g] += x
			took[g] = refSample{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), time.Since(t2).Seconds()}
		}(g)
	}
	wg.Wait()
	var mean refSample
	for k := range mean {
		for g := range took {
			mean[k] += took[g][k] / loadProcs
		}
	}
	return mean
}

// tick samples the reference work, unless a sample has only just ended: a
// clock that starts right after another one ended shares its sample. The
// workloads call it right before and right after each of their clocks.
func (c *calibrator) tick() {
	if c.lastEnd.IsZero() || time.Since(c.lastEnd) > refFresh {
		c.all = append(c.all, c.sample())
		c.lastEnd = time.Now()
	}
}

// between says how many times slower than the reference the box ran over the
// samples [from, to): the median of each stage, summed, over refSeconds. The
// median is taken stage by stage, and a stage's time is the goroutines' mean,
// not the time until the last one is done: when the box is disturbed in
// bursts shorter than a sample, whole samples that escaped are rare and stages
// that did are not, and over 142 logged rounds of such a period this scaling
// left the runs' wall_s spread 6–11% where scaling by whole samples left
// 12–23% (raw: 4% on archive_tree, 23% on mdtest_easy).
func (c *calibrator) between(from, to int) float64 {
	var sum float64
	stage := make([]float64, 0, to-from)
	for k := range (refSample{}) {
		stage = stage[:0]
		for _, s := range c.all[from:to] {
			stage = append(stage, s[k])
		}
		sum += median(stage)
	}
	return sum / refSeconds
}

// scaleRounds sets each round's slowdown factor from the reference samples
// taken during it and during the rounds right before and after it. One sample
// is a tenth of a second of a busy process's life, and as often disturbed by
// what a phase left behind (a collection under way, write-back) as by the box;
// the twenty or so of three rounds are steadier, and three rounds are short
// enough to follow the box when it changes speed for some seconds, as it does.
func (c *calibrator) scaleRounds(rounds []*round) {
	for i, r := range rounds {
		r.slow = c.between(rounds[max(i-1, 0)].cal0, rounds[min(i+1, len(rounds)-1)].cal1)
	}
}
