package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"arkfs/internal/fsapi"
	"arkfs/internal/fsck"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/sim"
)

// FsckConfig parameterizes a seeded corruption/scrub drill (arkbench -fsck):
// deploy ArkFS on two clients, populate it, shut down cleanly, bit-flip three
// objects at rest, and run the offline checker — with Repair, the scrubber
// too, and a final re-check. The same seed yields the same population, the
// same flipped objects, and the same verdict.
type FsckConfig struct {
	Seed   int64
	Repair bool
}

// FsckReport is the drill's outcome.
type FsckReport struct {
	Seed      int64
	Repair    bool
	Corrupted []string
	// Pre is the detection check over the corrupted image, Scrub the repair
	// (or, without Repair, planning) pass, Post the re-check after repairs
	// (nil without Repair).
	Pre   *fsck.Report
	Scrub *fsck.ScrubReport
	Post  *fsck.Report
	// Err records a harness-level failure (deploy or workload).
	Err error
}

// Failed reports whether the drill missed its guarantees: every flipped
// object must be detected and acted on, and a repaired image must re-check
// clean modulo the tolerated crash leaks.
func (r *FsckReport) Failed() bool {
	if r.Err != nil {
		return true
	}
	if len(r.Corrupted) > 0 && (r.Pre == nil || r.Pre.Clean()) {
		return true // corruption at rest went undetected
	}
	if r.Scrub != nil && len(unrepaired(r.Scrub, r.Corrupted)) > 0 {
		return true // scrub neither repaired nor quarantined one
	}
	if r.Post == nil {
		return false
	}
	_, bad := splitLeaks(r.Post.Problems)
	return len(bad) > 0
}

// Summary renders the drill outcome for the CLI.
func (r *FsckReport) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fsck drill seed %d: %d object(s) bit-flipped at rest\n", r.Seed, len(r.Corrupted))
	for _, k := range r.Corrupted {
		fmt.Fprintf(&b, "  corrupted   %s\n", k)
	}
	if r.Err != nil {
		fmt.Fprintf(&b, "error: %v\nRESULT: FAILED (seed %d)\n", r.Err, r.Seed)
		return b.String()
	}
	fmt.Fprintf(&b, "detect: %d problem(s)\n", len(r.Pre.Problems))
	for _, p := range r.Pre.Problems {
		fmt.Fprintf(&b, "  %s\n", p)
	}
	if r.Scrub != nil {
		verb := "planned"
		if r.Repair {
			verb = "performed"
		}
		fmt.Fprintf(&b, "scrub %s %d action(s)\n", verb, len(r.Scrub.Actions))
		for _, a := range r.Scrub.Actions {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	if r.Post != nil {
		fmt.Fprintf(&b, "re-check: %d problem(s) after repair\n", len(r.Post.Problems))
		for _, p := range r.Post.Problems {
			fmt.Fprintf(&b, "  %s\n", p)
		}
	}
	if r.Failed() {
		fmt.Fprintf(&b, "RESULT: FAILED (seed %d replays this drill)\n", r.Seed)
	} else {
		fmt.Fprintf(&b, "RESULT: ok\n")
	}
	return b.String()
}

// RunFsck executes one seeded corruption/scrub drill.
func RunFsck(cfg FsckConfig) *FsckReport {
	rep := &FsckReport{Seed: cfg.Seed, Repair: cfg.Repair}
	prof := objstore.RADOSProfile()
	prof.SizeOnlyPrefix = "" // keep data payloads: the drill flips their bytes
	o := ArkFSOptions{PermCache: true, Seed: cfg.Seed}
	err := simulate(2, arkfs(DefaultCalibration(), prof, o), func(env sim.Env, d *Deployment) (err error) {
		if err := fsckPopulate(env, d, cfg.Seed); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
		// Clean shutdown: journals checkpointed, leases released — whatever
		// the checker finds afterwards was injected, not left behind.
		for _, m := range d.Mounts {
			if err := m.Close(); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
		}
		// Data and dentry objects only. Inodes are excluded for the same
		// reason as in the chaos epilogue: once checkpointed their journaled
		// copies are gone, so the scrubber can only quarantine them, leaving
		// a dangling dentry behind; the superblock is excluded because the
		// drill formats with the default chunk size anyway, making its
		// corruption trivially repairable noise.
		if rep.Corrupted, err = flipAtRest(d.Cluster, 3, cfg.Seed*104729+29, 0x10,
			prt.PrefixData, prt.PrefixDentry); err != nil {
			return fmt.Errorf("corrupt: %w", err)
		}
		if rep.Pre, err = fsck.Check(d.Cluster); err != nil {
			return fmt.Errorf("check: %w", err)
		}
		if rep.Scrub, err = fsck.Scrub(d.Cluster, cfg.Repair); err != nil {
			return fmt.Errorf("scrub: %w", err)
		}
		rep.Post = rep.Scrub.Post
		return nil
	})
	if err != nil {
		rep.Err = fmt.Errorf("fsck drill: %w", err)
	}
	return rep
}

// fsckPopulate builds a small deterministic namespace: three directories of
// six data-bearing files each, plus one cross-directory rename so 2PC records
// pass through the image.
func fsckPopulate(env sim.Env, d *Deployment, seed int64) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed*7919 + 5))
	for di := 0; di < 3; di++ {
		m := d.Mounts[di%len(d.Mounts)]
		dir := fmt.Sprintf("/drill-%02d", di)
		if err := m.Mkdir(ctx, dir, 0o755); err != nil {
			return err
		}
		for fi := 0; fi < 6; fi++ {
			path := fmt.Sprintf("%s/f%03d", dir, fi)
			f, err := fsapi.Create(ctx, m, path, 0o644)
			if err != nil {
				return err
			}
			data := make([]byte, 512+rng.Intn(1536))
			rng.Read(data)
			if _, err := f.Write(data); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if err := d.Mounts[0].Rename(ctx, "/drill-00/f000", "/drill-01/renamed"); err != nil {
		return err
	}
	for _, m := range d.Mounts {
		if err := m.FlushAll(ctx); err != nil {
			return err
		}
	}
	// Let background lease/journal work quiesce before shutdown.
	env.Sleep(2 * DefaultCalibration().LeasePeriod)
	return nil
}

// flipAtRest flips one byte (XOR mask) in each of n objects picked by a
// seeded shuffle of the objects under prefixes, and returns the flipped keys
// in order. Empty objects are skipped: they have no byte to flip.
func flipAtRest(store objstore.Store, n int, seed int64, mask byte, prefixes ...string) ([]string, error) {
	var candidates []string
	for _, prefix := range prefixes {
		keys, err := store.List(prefix)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, keys...)
	}
	sort.Strings(candidates)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(candidates), func(i, j int) {
		candidates[i], candidates[j] = candidates[j], candidates[i]
	})
	picked := candidates[:min(n, len(candidates))]
	sort.Strings(picked)
	var flipped []string
	for _, key := range picked {
		raw, err := store.Get(key)
		if err != nil {
			return flipped, err
		}
		if len(raw) == 0 {
			continue
		}
		cp := append([]byte(nil), raw...)
		cp[rng.Intn(len(cp))] ^= mask
		if err := store.Put(key, cp); err != nil {
			return flipped, err
		}
		flipped = append(flipped, key)
	}
	return flipped, nil
}

// unrepaired returns the keys scrub took no action on.
func unrepaired(scrub *fsck.ScrubReport, keys []string) []string {
	acted := make(map[string]bool, len(scrub.Actions))
	for _, a := range scrub.Actions {
		acted[a.Key] = true
	}
	var missed []string
	for _, k := range keys {
		if !acted[k] {
			missed = append(missed, k)
		}
	}
	return missed
}
