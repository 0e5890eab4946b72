package harness

import (
	"strings"
	"testing"
	"time"

	"arkfs/internal/baseline/pathfs"
	"arkfs/internal/fsapi/fstest"
	"arkfs/internal/objstore"
	"arkfs/internal/sim"
	"arkfs/internal/workload"
)

// quickRunner runs experiments at smoke-test scale.
func quickRunner() *Runner {
	r := NewRunner()
	r.Scale = QuickScale()
	return r
}

// cell fetches a value or fails the test.
func cell(t *testing.T, e *Experiment, system, metric string) float64 {
	t.Helper()
	c, ok := e.Value(system, metric)
	if !ok {
		t.Fatalf("%s: missing cell %s/%s", e.ID, system, metric)
	}
	if c.Failed {
		t.Fatalf("%s: cell %s/%s failed", e.ID, system, metric)
	}
	return c.Value
}

func TestFig4Shapes(t *testing.T) {
	exp, err := quickRunner().Fig4()
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"CREATE", "STAT", "DELETE"} {
		ark := cell(t, exp, "ArkFS", phase)
		k1 := cell(t, exp, "CephFS-K (1 MDS)", phase)
		f := cell(t, exp, "CephFS-F", phase)
		marfs := cell(t, exp, "MarFS", phase)
		if ark <= k1 {
			t.Errorf("%s: ArkFS (%f) must beat CephFS-K (%f)", phase, ark, k1)
		}
		if k1 <= f {
			t.Errorf("%s: CephFS-K (%f) must beat CephFS-F (%f)", phase, k1, f)
		}
		if f < marfs*0.8 {
			t.Errorf("%s: MarFS (%f) should not beat CephFS-F (%f) by much", phase, marfs, f)
		}
	}
	// The paper's headline: a large ArkFS advantage on metadata phases.
	if ratio := cell(t, exp, "ArkFS", "CREATE") / cell(t, exp, "CephFS-K (1 MDS)", "CREATE"); ratio < 3 {
		t.Errorf("ArkFS/CephFS-K CREATE ratio = %.1f, want >= 3", ratio)
	}
}

func TestFig5Shapes(t *testing.T) {
	exp, err := quickRunner().Fig5()
	if err != nil {
		t.Fatal(err)
	}
	// ArkFS leads every phase, by a reduced margin in the shared-dir WRITE.
	for _, phase := range []string{"WRITE", "STAT", "DELETE"} {
		ark := cell(t, exp, "ArkFS", phase)
		k1 := cell(t, exp, "CephFS-K (1 MDS)", phase)
		if ark <= k1 {
			t.Errorf("%s: ArkFS (%f) must beat CephFS-K (%f)", phase, ark, k1)
		}
	}
	// MarFS READ is reported as failed, as in the paper's environment.
	c, ok := exp.Value("MarFS", "READ")
	if !ok || !c.Failed {
		t.Errorf("MarFS READ should be marked failed: %+v", c)
	}
}

func TestFig6aShapes(t *testing.T) {
	exp, err := quickRunner().Fig6a()
	if err != nil {
		t.Fatal(err)
	}
	arkW := cell(t, exp, "ArkFS", "WRITE")
	kW := cell(t, exp, "CephFS-K", "WRITE")
	arkR := cell(t, exp, "ArkFS", "READ")
	kR := cell(t, exp, "CephFS-K", "READ")
	fR := cell(t, exp, "CephFS-F", "READ")
	// WRITE within ~35% of each other (the paper: "little differences").
	if ratio := arkW / kW; ratio < 0.65 || ratio > 1.55 {
		t.Errorf("WRITE ArkFS/CephFS-K = %.2f, want near 1", ratio)
	}
	// READ: ArkFS ~ CephFS-K, both well above CephFS-F (128 KiB read-ahead).
	if ratio := arkR / kR; ratio < 0.6 || ratio > 1.8 {
		t.Errorf("READ ArkFS/CephFS-K = %.2f, want near 1", ratio)
	}
	if arkR < 1.5*fR {
		t.Errorf("READ: ArkFS (%f) must clearly beat CephFS-F (%f)", arkR, fR)
	}
}

func TestFig6bShapes(t *testing.T) {
	exp, err := quickRunner().Fig6b()
	if err != nil {
		t.Fatal(err)
	}
	arkW := cell(t, exp, "ArkFS-ra8MB", "WRITE")
	s3fsW := cell(t, exp, "S3FS", "WRITE")
	arkR := cell(t, exp, "ArkFS-ra8MB", "READ")
	ark400R := cell(t, exp, "ArkFS-ra400MB", "READ")
	s3fsR := cell(t, exp, "S3FS", "READ")
	goofysR := cell(t, exp, "goofys", "READ")
	if arkW <= 1.5*s3fsW {
		t.Errorf("WRITE: ArkFS (%f) must clearly beat S3FS (%f)", arkW, s3fsW)
	}
	if arkR <= 1.5*s3fsR {
		t.Errorf("READ: ArkFS (%f) must clearly beat S3FS (%f)", arkR, s3fsR)
	}
	if goofysR <= arkR {
		t.Errorf("READ: goofys (%f) must beat ArkFS-ra8MB (%f)", goofysR, arkR)
	}
	// Raising the window closes the gap (the paper's ArkFS-ra400MB).
	if ratio := ark400R / goofysR; ratio < 0.5 {
		t.Errorf("READ: ArkFS-ra400MB (%f) should approach goofys (%f)", ark400R, goofysR)
	}
}

func TestFig7Shapes(t *testing.T) {
	r := quickRunner()
	r.Scale.ScaleClients = []int{1, 2, 8, 32}
	exp, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// ArkFS-pcache scales: 32 clients well above 8x the 1-client baseline
	// would be ideal; require clear growth.
	p1 := cell(t, exp, "ArkFS-pcache", "1")
	p32 := cell(t, exp, "ArkFS-pcache", "32")
	if p32 < 8*p1 {
		t.Errorf("ArkFS-pcache at 32 clients = %.1fx, want >= 8x", p32/p1)
	}
	// no-pcache drops when a second client appears (near-root hotspot).
	np1 := cell(t, exp, "ArkFS-no-pcache", "1")
	np2 := cell(t, exp, "ArkFS-no-pcache", "2")
	if np2 >= np1 {
		t.Errorf("ArkFS-no-pcache must drop from 1 (%f) to 2 (%f) clients", np1, np2)
	}
	// and stays far below pcache at scale.
	np32 := cell(t, exp, "ArkFS-no-pcache", "32")
	if np32 > p32/2 {
		t.Errorf("no-pcache at 32 (%f) should trail pcache (%f)", np32, p32)
	}
	// CephFS-K(1) saturates: no growth from 8 to 32 clients.
	k8 := cell(t, exp, "CephFS-K (1 MDS)", "8")
	k32 := cell(t, exp, "CephFS-K (1 MDS)", "32")
	if k32 > k8*1.3 {
		t.Errorf("CephFS-K(1) must saturate: 8 clients %f vs 32 clients %f", k8, k32)
	}
}

func TestTable2Shapes(t *testing.T) {
	exp, err := quickRunner().Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"Archiving", "Unarchiving"} {
		ark := cell(t, exp, "ArkFS", metric)
		k := cell(t, exp, "CephFS-K", metric)
		f := cell(t, exp, "CephFS-F", metric)
		if ark >= k {
			t.Errorf("%s: ArkFS (%.2fs) must be faster than CephFS-K (%.2fs)", metric, ark, k)
		}
		if k >= f {
			t.Errorf("%s: CephFS-K (%.2fs) must be faster than CephFS-F (%.2fs)", metric, k, f)
		}
	}
}

// TestAblationShapes: every ablation fills every cell, and the directions
// quick scale shows hold.
func TestAblationShapes(t *testing.T) {
	r := quickRunner()
	cells := map[string]int{"ablate-journal": 2, "ablate-readahead": 5, "ablate-entrysize": 8, "ablate-leasemgr": 3}
	exps := map[string]*Experiment{}
	for _, run := range []func() (*Experiment, error){
		r.AblationJournal, r.AblationReadahead, r.AblationEntrySize, r.AblationLeaseManager,
	} {
		exp, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(exp.Cells) != cells[exp.ID] {
			t.Errorf("%s: %d cells, want %d", exp.ID, len(exp.Cells), cells[exp.ID])
		}
		for _, c := range exp.Cells {
			if cell(t, exp, c.System, c.Metric) <= 0 {
				t.Errorf("%s: cell %s/%s = %f, want > 0", exp.ID, c.System, c.Metric, c.Value)
			}
		}
		exps[exp.ID] = exp
	}
	journal := exps["ablate-journal"]
	if paper, unbatched := cell(t, journal, "per-dir journals, 1s batching (paper)", "CREATE"),
		cell(t, journal, "no batching (commit per op)", "CREATE"); unbatched >= paper {
		t.Errorf("CREATE without batching (%f) must trail the paper's design (%f)", unbatched, paper)
	}
	ra := exps["ablate-readahead"]
	prev := 0.0
	for _, window := range []string{"ra=off", "ra=2MiB", "ra=8MiB", "ra=32MiB"} {
		read := cell(t, ra, "ArkFS", window)
		if read <= prev {
			t.Errorf("READ at %s (%f) must beat the smaller window (%f)", window, read, prev)
		}
		prev = read
	}
}

func TestRenderFormats(t *testing.T) {
	exp := &Experiment{
		ID:    "test",
		Title: "Test Table",
		Cells: []Cell{
			{System: "sysA", Metric: "M1", Value: 12.345, Unit: "kIOPS"},
			{System: "sysA", Metric: "M2", Value: 0.5, Unit: "kIOPS"},
			{System: "sysB", Metric: "M1", Value: 2000, Unit: "kIOPS", Failed: false},
			{System: "sysB", Metric: "M2", Value: 0, Unit: "kIOPS", Failed: true},
		},
		Notes: []string{"a note"},
	}
	out := exp.Render()
	for _, want := range []string{"Test Table", "sysA", "sysB", "12.3", "2000", "ERR", "note: a note", "[kIOPS]"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
	csv := exp.RenderCSV()
	if !strings.Contains(csv, `test,"sysB","M2",0,kIOPS,true`) {
		t.Errorf("CSV missing failed row:\n%s", csv)
	}
	// Numeric metric ordering.
	series := &Experiment{Cells: []Cell{
		{System: "s", Metric: "16", Value: 1},
		{System: "s", Metric: "2", Value: 1},
		{System: "s", Metric: "1", Value: 1},
	}}
	m := series.MetricsOf()
	if m[0] != "1" || m[1] != "2" || m[2] != "16" {
		t.Errorf("numeric metrics unsorted: %v", m)
	}
}

// TestArkFSConformance runs the fstest suite on one ArkFS client under the
// virtual clock. The RADOS profile keeps every object's bytes, so data reads
// back as written.
func TestArkFSConformance(t *testing.T) {
	rados := objstore.RADOSProfile()
	rados.SizeOnlyPrefix = ""
	err := simulate(1, arkfs(DefaultCalibration(), rados, ArkFSOptions{}), func(env sim.Env, d *Deployment) error {
		fstest.Run(t, d.Mounts[0], fstest.LevelPOSIX)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPathFSFig6bPinned pins the virtual time of Fig. 6(b)'s S3FS and goofys
// cells at a small scale: two clients, 16 MiB files, 128 KiB requests.
func TestPathFSFig6bPinned(t *testing.T) {
	for _, c := range []struct {
		name        string
		p           pathfs.Policy
		write, read time.Duration
	}{
		{"S3FS", pathfs.S3FS, 247_975_000, 201_650_000},
		{"goofys", pathfs.Goofys, 120_975_000, 59_650_000},
	} {
		w, r, err := fio(2, pathFS(DefaultCalibration(), objstore.S3Profile(), c.p), workload.FioConfig{FileSize: 16 << 20, ReqSize: 128 << 10})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if w.Elapsed != c.write || r.Elapsed != c.read {
			t.Errorf("%s: write %d ns, read %d ns; want %d, %d", c.name, w.Elapsed, r.Elapsed, c.write, c.read)
		}
	}
}
