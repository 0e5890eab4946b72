package harness

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func quickBench() BenchConfig {
	return BenchConfig{
		Seed: 42, Clients: []int{1, 2}, FilesPerProc: 40, Procs: 2, FioFileSize: 8 << 20,
		// Tiny sharded sweep: enough to exercise the phase, small enough that
		// two full runs fit a unit test.
		ShardedClients: []int{8}, Shards: 2, ShardedDirs: 2, ShardedFilesPerDir: 1,
		TakeoverEntries: []int{40},
	}
}

// TestRunBenchSchemaStable: the report round-trips through its own JSON and
// carries the schema tag, seed, and a non-empty fingerprint.
func TestRunBenchSchemaStable(t *testing.T) {
	rep, err := RunBench(quickBench())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != BenchSchema {
		t.Fatalf("schema = %q, want %q", rep.Schema, BenchSchema)
	}
	if rep.Seed != 42 {
		t.Fatalf("seed = %d", rep.Seed)
	}
	if len(rep.MdtestEasy) == 0 || len(rep.MdtestHard) == 0 || len(rep.Scalability) != 2 {
		t.Fatalf("incomplete report: %+v", rep)
	}
	for _, p := range append(rep.MdtestEasy, rep.MdtestHard...) {
		if p.Errors != 0 {
			t.Fatalf("phase %s had %d errors", p.Name, p.Errors)
		}
		if p.OpsPerSec <= 0 || p.ElapsedNS <= 0 {
			t.Fatalf("phase %s has empty timing: %+v", p.Name, p)
		}
	}
	if rep.FioWrite.GiBps <= 0 || rep.FioRead.GiBps <= 0 {
		t.Fatalf("fio empty: w=%+v r=%+v", rep.FioWrite, rep.FioRead)
	}
	if len(rep.ShardedScalability) != 2 {
		t.Fatalf("sharded sweep has %d points, want 2", len(rep.ShardedScalability))
	}
	for i, p := range rep.ShardedScalability {
		wantShards := []int{1, 2}[i]
		if p.Clients != 8 || p.Shards != wantShards || p.CreatePerSec <= 0 {
			t.Fatalf("sharded point %d = %+v, want 8 clients / %d shards / positive rate",
				i, p, wantShards)
		}
	}
	if rep.MetricsFingerprint == "" || len(rep.MetricsSHA256) != 64 {
		t.Fatalf("fingerprint missing: sha=%q", rep.MetricsSHA256)
	}
	// The takeover curve: the one size on both stores, and after a crash.
	if len(rep.Takeover) != 3 || !rep.Takeover[2].Crashed {
		t.Fatalf("takeover section: %+v", rep.Takeover)
	}
	for _, p := range rep.Takeover {
		if p.Entries != 40 || p.ElapsedNS <= 0 || p.LoadedNS < p.ElapsedNS {
			t.Fatalf("takeover point %+v", p)
		}
	}
	var back BenchReport
	if err := json.Unmarshal(rep.JSON(), &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.MetricsSHA256 != rep.MetricsSHA256 {
		t.Fatal("round-trip lost the fingerprint hash")
	}
}

// TestRunBenchDeterministic: the same seed and config yield byte-identical
// JSON apart from the sharded sweep rates, which are only stable to a small
// tolerance (multi-shard queueing makes same-virtual-instant event order —
// decided by the host scheduler — feed back into timings). This is the exact
// contract CI enforces when it regenerates BENCH_seed.json.
func TestRunBenchDeterministic(t *testing.T) {
	a, err := RunBench(quickBench())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBench(quickBench())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ShardedScalability) != len(b.ShardedScalability) {
		t.Fatalf("sharded sweep shape differs: %d vs %d points",
			len(a.ShardedScalability), len(b.ShardedScalability))
	}
	for i, pa := range a.ShardedScalability {
		pb := b.ShardedScalability[i]
		if pa.Clients != pb.Clients || pa.Shards != pb.Shards {
			t.Fatalf("sharded point %d keys differ: %+v vs %+v", i, pa, pb)
		}
		if diff := pa.CreatePerSec - pb.CreatePerSec; diff > pa.CreatePerSec*0.01 || -diff > pa.CreatePerSec*0.01 {
			t.Fatalf("sharded point %d rates differ beyond 1%%: %.1f vs %.1f",
				i, pa.CreatePerSec, pb.CreatePerSec)
		}
	}
	// Everything outside the sharded rates must be byte-identical.
	for i := range a.ShardedScalability {
		a.ShardedScalability[i].CreatePerSec = 0
		b.ShardedScalability[i].CreatePerSec = 0
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("same-seed bench runs differ:\n--- a\n%s\n--- b\n%s", a.JSON(), b.JSON())
	}
}

// TestTakeoverCurve: at every size and on both store models, and after a
// crash, a fresh client's first stat into a directory waits for the
// directory inode, the dentry block and one child, not for the table: it
// takes the same time fanned out as with CheckpointFanout 1 (one GET after
// another), and the same at 1,000 entries as at 100. The full table loads at
// least 4x faster fanned out, and both ways the client sees the directory.
func TestTakeoverCurve(t *testing.T) {
	cal := DefaultCalibration()
	firsts := map[BenchTakeover]time.Duration{}
	for _, p := range []BenchTakeover{
		{Store: "rados", Entries: 100}, {Store: "rados", Entries: 1000}, {Store: "s3", Entries: 100},
		{Store: "s3", Entries: 1000}, {Store: "rados", Entries: 1000, Crashed: true},
	} {
		first, fanned, err := TakeoverPoint(cal, p, 0)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		serialFirst, serial, err := TakeoverPoint(cal, p, 1)
		if err != nil {
			t.Fatalf("%+v serial: %v", p, err)
		}
		t.Logf("%-5s %6d entries crashed=%-5v first stat %12v; table %12v fanned out %12v serial (%.1fx)",
			p.Store, p.Entries, p.Crashed, first, fanned, serial, float64(serial)/float64(fanned))
		if first != serialFirst || first > fanned {
			t.Errorf("%+v: first stat %v fanned out, %v serial, table loaded at %v: the stat waited for the load", p, first, serialFirst, fanned)
		}
		if fanned*4 > serial {
			t.Errorf("%+v: table loaded in %v fanned out against %v serial, want at least 4x", p, fanned, serial)
		}
		firsts[p] = first
	}
	for _, store := range []string{"rados", "s3"} {
		small, big := firsts[BenchTakeover{Store: store, Entries: 100}], firsts[BenchTakeover{Store: store, Entries: 1000}]
		if big > small*11/10 {
			t.Errorf("%s: first stat %v at 1,000 entries, %v at 100: it grows with the directory", store, big, small)
		}
	}
}
