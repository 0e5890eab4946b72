package qos

import "time"

// OpCost classifies operations for the brownout ladder: under pressure the
// leader sheds expensive operations (readdir, cross-directory rename with its
// 2PC round) before normal mutations, and never sheds cheap reads — a
// stat-heavy monitoring loop keeps working while the journal catches up.
type OpCost int

const (
	// CostCheap: stat, lookup, open-for-read. Never shed by brownout.
	CostCheap OpCost = iota
	// CostNormal: create, unlink, setattr, symlink — single-journal-record
	// mutations.
	CostNormal
	// CostExpensive: readdir (full dentry scan) and rename (2PC, two
	// leaders, decision record).
	CostExpensive
)

// The brownout ladder. Pressure is a unitless backlog ratio (1.0 = the
// journal pipeline's in-flight window is exactly full). Expensive ops shed
// from pressure 1; normal ones also shed from pressure 3, by when even
// single-record mutations would only deepen the backlog.
const (
	shedExpensive = 1
	shedNormal    = 3
	// shedAfter is the retry-after hint at the threshold: roughly the time
	// one pipeline window takes to drain. It grows with the overload depth.
	shedAfter = 10 * time.Millisecond
)

// Sheds reports whether an op of class c is shed at pressure p, and the
// retry-after hint when so. Cheap ops are never shed.
func Sheds(p float64, c OpCost) (bool, time.Duration) {
	threshold := float64(shedNormal)
	switch c {
	case CostCheap:
		return false, 0
	case CostExpensive:
		threshold = shedExpensive
	}
	if p < threshold {
		return false, 0
	}
	// Deeper overload ⇒ longer hint, so pushback spreads retries out rather
	// than synchronizing them at one horizon.
	depth := min(p/threshold, 8)
	return true, time.Duration(float64(shedAfter) * depth)
}
