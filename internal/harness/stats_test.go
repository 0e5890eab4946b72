package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestRunStatsCoversEveryLayer: the instrumented deployment reports metrics
// from all five layers (core, lease, journal, rpc, objstore) plus the cache.
func TestRunStatsCoversEveryLayer(t *testing.T) {
	snap, err := RunStats(StatsConfig{Clients: 2, FilesPerProc: 40, SharedDirs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"core.", "lease.", "journal.", "rpc.", "objstore.", "cache."} {
		found := false
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, prefix) && v > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no non-zero counter with prefix %q", prefix)
		}
	}
	if snap.Counters["journal.appends"] == 0 {
		t.Error("journal.appends = 0 after mdtest")
	}
	if snap.Histograms["core.op.stat"].Count == 0 {
		t.Error("core.op.stat histogram empty after mdtest STAT phase")
	}
	// The snapshot renders as valid JSON.
	var decoded map[string]any
	if err := json.Unmarshal(snap.JSON(), &decoded); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	for _, key := range []string{"counters", "gauges", "histograms"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("snapshot JSON missing %q", key)
		}
	}
}

// TestRunStatsDeterministic: the virtual clock makes the whole instrumented
// run reproducible — two runs of the same config produce byte-identical
// metrics fingerprints.
func TestRunStatsDeterministic(t *testing.T) {
	cfg := StatsConfig{Clients: 2, FilesPerProc: 30, SharedDirs: 2}
	a, err := RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStats(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same config diverged:\nrun A:\n%s\nrun B:\n%s", a.Fingerprint(), b.Fingerprint())
	}
}
