package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkSmallFile-2      	     512	     10556 ns/op	    6800 B/op	      36 allocs/op
BenchmarkSmallFile-2      	     512	      6525 ns/op	    6498 B/op	      35 allocs/op
BenchmarkWriteSeq128K-2   	     512	    123107 ns/op	1064.70 MB/s	  197431 B/op	       1 allocs/op
BenchmarkCreateWriteClose/local         	    2000	     28724 ns/op	   14320 B/op	      70 allocs/op
PASS
`

func TestParseBenchKeepsTheLeastReading(t *testing.T) {
	got, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]reading{
		"BenchmarkSmallFile":              {6498, 35},
		"BenchmarkWriteSeq128K":           {197431, 1},
		"BenchmarkCreateWriteClose/local": {14320, 70},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %+v, want %+v", name, got[name], w)
		}
	}
}

func TestCheck(t *testing.T) {
	want := map[string]reading{"A": {1000, 10}, "B": {1000, 10}, "C": {1000, 10}, "D": {1000, 10}}
	got := map[string]reading{
		"A": {1050, 11}, // at both limits
		"B": {1051, 10}, // bytes over
		"C": {900, 12},  // allocs over
	}
	bad := check(want, got)
	if len(bad) != 3 || !strings.HasPrefix(bad[0], "B:") || !strings.HasPrefix(bad[1], "C:") || !strings.HasPrefix(bad[2], "D:") {
		t.Fatalf("violations: %q", bad)
	}
}

// The committed table parses, and the reading the gate was built to stop, a
// 3,901-byte file costing a 2 MiB buffer, fails it.
func TestTableStopsTheChunkSizedSmallFile(t *testing.T) {
	want, err := parseTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 16 {
		t.Fatalf("%d rows in the table, want the sixteen gated benchmarks", len(want))
	}
	got := map[string]reading{}
	for name, r := range want {
		got[name] = r
	}
	if bad := check(want, got); len(bad) != 0 {
		t.Fatalf("the table fails itself: %q", bad)
	}
	got["BenchmarkSmallFile"] = reading{2108842, 51}
	if bad := check(want, got); len(bad) != 1 {
		t.Fatalf("the parent's BenchmarkSmallFile: %q", bad)
	}
	// So does a lookup message per component (ISSUE 21's parent at depth 3).
	got["BenchmarkForwardedStat/depth3"] = reading{4752, 81}
	if bad := check(want, got); len(bad) != 2 {
		t.Fatalf("a forwarded stat of five messages: %q", bad)
	}
	// And an OpenReq after the walk (ISSUE 24's parent).
	got["BenchmarkForwardedOpenReadClose"] = reading{9130, 70}
	if bad := check(want, got); len(bad) != 3 {
		t.Fatalf("a forwarded open of three messages: %q", bad)
	}
	// And a prefetch goroutine per request that saw a chunk absent (ISSUE
	// 27's parent).
	got["BenchmarkReadSeqCold"] = reading{135038348, 1369}
	if bad := check(want, got); len(bad) != 4 {
		t.Fatalf("a cold read without read-ahead reservations: %q", bad)
	}
	// And a leader-local stat that copies every inode its walk crosses.
	got["BenchmarkStatNoObs"] = reading{544, 8}
	if bad := check(want, got); len(bad) != 5 {
		t.Fatalf("a stat that copies what it crosses: %q", bad)
	}
}
