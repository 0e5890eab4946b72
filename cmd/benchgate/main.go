// Command benchgate holds the small-file path's allocation line in CI: it
// reads `go test -bench ... -benchmem` output on standard input and fails
// when a benchmark named in table.txt allocates more than the table allows,
// or did not run. Only B/op and allocs/op are gated; ns/op depends on the box
// and stays informational.
//
//	go test -run '^$' -bench ... -benchtime Nx -benchmem -cpu 2 -count 5 ./... | go run ./cmd/benchgate
package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Slack over the table: even the least of a few runs varies a little with
// which goroutine hand-offs had to park and which pools a GC emptied.
const (
	bytesSlack  = 1.05
	allocsSlack = 1
)

//go:embed table.txt
var table string

// reading is what one benchmark allocates per op.
type reading struct{ bytes, allocs float64 }

// parseTable reads "name B/op allocs/op" lines; '#' starts a comment.
func parseTable(text string) (map[string]reading, error) {
	out := map[string]reading{}
	for _, line := range strings.Split(text, "\n") {
		line, _, _ = strings.Cut(line, "#")
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 {
			return nil, fmt.Errorf("table: want \"name B/op allocs/op\", got %q", line)
		}
		b, err1 := strconv.ParseFloat(f[1], 64)
		a, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("table: bad numbers in %q", line)
		}
		out[f[0]] = reading{b, a}
	}
	return out, nil
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s.*?\s([\d.]+) B/op\s+([\d.]+) allocs/op`)

// parseBench returns, per benchmark, the least of its readings: repeated runs
// (-count) differ by what else ran meanwhile, which only ever adds.
func parseBench(r io.Reader) (map[string]reading, error) {
	out := map[string]reading{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b, _ := strconv.ParseFloat(m[2], 64)
		a, _ := strconv.ParseFloat(m[3], 64)
		if have, ok := out[m[1]]; ok {
			b, a = min(b, have.bytes), min(a, have.allocs)
		}
		out[m[1]] = reading{b, a}
	}
	return out, sc.Err()
}

// check compares got with want and returns one line per violation.
func check(want, got map[string]reading) []string {
	var bad []string
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s: in the table, not in the input", name))
		case g.bytes > w.bytes*bytesSlack:
			bad = append(bad, fmt.Sprintf("%s: %.0f B/op, table %.0f (+%.1f%%, slack %.0f%%)",
				name, g.bytes, w.bytes, 100*(g.bytes/w.bytes-1), 100*(bytesSlack-1)))
		case g.allocs > w.allocs+allocsSlack:
			bad = append(bad, fmt.Sprintf("%s: %.0f allocs/op, table %.0f (slack %d)", name, g.allocs, w.allocs, allocsSlack))
		}
	}
	sort.Strings(bad)
	return bad
}

func main() {
	want, err := parseTable(table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	got, err := parseBench(io.TeeReader(os.Stdin, os.Stdout))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if bad := check(want, got); len(bad) > 0 {
		for _, line := range bad {
			fmt.Fprintln(os.Stderr, "benchgate:", line)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within the table\n", len(want))
}
