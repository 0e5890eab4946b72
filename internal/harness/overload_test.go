package harness

import (
	"strings"
	"testing"
)

// TestOverloadProtection: the headline overload scenario. One hostile tenant
// floods a shared leader at several times its admitted rate while three
// polite tenants stay under theirs. The report's own oracle asserts the
// contract: zero acknowledged-op loss, polite goodput within 80% of the
// isolated baseline, typed pushback (not timeouts) for the hostile tenant,
// and convergence once the burst ends.
func TestOverloadProtection(t *testing.T) {
	rep := RunOverload(OverloadConfig{Seed: 1})
	if rep.Failed() {
		t.Fatalf("overload scenario failed:\n%s", rep.Summary())
	}
	var hostile, politeAcked int
	for _, r := range rep.Contended {
		if r.Hostile {
			hostile++
			if r.Pushback == 0 && rep.HostileRetries == 0 {
				t.Errorf("hostile tenant saw no pushback:\n%s", rep.Summary())
			}
		} else {
			politeAcked += r.Acked
		}
	}
	if hostile != 1 {
		t.Fatalf("expected exactly 1 hostile tenant, got %d", hostile)
	}
	if politeAcked == 0 {
		t.Fatalf("no polite work acknowledged — scenario too weak:\n%s", rep.Summary())
	}
	if !strings.Contains(rep.Metrics, "qos.") {
		t.Errorf("metrics fingerprint carries no qos.* counters:\n%s", rep.Metrics)
	}
}

// TestOverloadNeedsAdmission pins leader admission as the defence the
// oracle needs: without it (QoSRate 0) the hostile tenant floods the shared
// leader unanswered, and seed 1 fails on the missing pushback.
func TestOverloadNeedsAdmission(t *testing.T) {
	o := overloadOptions(1)
	o.QoSRate = 0
	rep := runOverload(OverloadConfig{Seed: 1}, o)
	want := "hostile tenant saw no typed retry-after pushback"
	for _, e := range rep.Errors {
		if strings.Contains(e, want) {
			return
		}
	}
	t.Fatalf("without admission the oracle did not report %q:\n%s", want, rep.Summary())
}

// TestOverloadSeeds sweeps the protection contract across a few seeds, so the
// pass does not hinge on one lucky schedule.
func TestOverloadSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed overload sweep is not short")
	}
	for _, seed := range []int64{7, 42} {
		rep := RunOverload(OverloadConfig{Seed: seed})
		if rep.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, rep.Summary())
		}
	}
}

// TestOverloadSameSeedSameFingerprint: replaying a seed reproduces the exact
// per-tenant tallies and every qos.* counter — the property that makes an
// overload failure replayable with arkbench -chaos -overload -seed N.
func TestOverloadSameSeedSameFingerprint(t *testing.T) {
	cfg := OverloadConfig{Seed: 99}
	a := RunOverload(cfg)
	b := RunOverload(cfg)
	if a.Failed() || b.Failed() {
		t.Fatalf("runs failed:\n%s\n%s", a.Summary(), b.Summary())
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("same seed, different fingerprints:\n--- run A\n%s\n--- run B\n%s",
			a.Fingerprint(), b.Fingerprint())
	}
}
