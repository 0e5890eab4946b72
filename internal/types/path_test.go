package types

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want string // JoinPath of result
		err  bool
	}{
		{"/", "/", false},
		{"//", "/", false},
		{"/a/b/c", "/a/b/c", false},
		{"/a//b/./c/", "/a/b/c", false},
		{"/a/../b", "/b", false},
		{"/../..", "/", false},
		{"/a/b/../../c", "/c", false},
		{"", "", true},
		{"relative/path", "", true},
		{"/" + strings.Repeat("x", MaxNameLen+1), "", true},
	}
	for _, c := range cases {
		parts, err := SplitPath(c.in)
		if c.err {
			if err == nil {
				t.Errorf("SplitPath(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("SplitPath(%q): %v", c.in, err)
			continue
		}
		if got := JoinPath(parts); got != c.want {
			t.Errorf("SplitPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSplitDir(t *testing.T) {
	dir, name, err := SplitDir("/home/user/file.txt")
	if err != nil {
		t.Fatal(err)
	}
	if JoinPath(dir) != "/home/user" || name != "file.txt" {
		t.Fatalf("got dir=%q name=%q", JoinPath(dir), name)
	}
	if _, _, err := SplitDir("/"); !errors.Is(err, ErrInval) {
		t.Errorf("SplitDir(/): want EINVAL, got %v", err)
	}
}

func TestValidName(t *testing.T) {
	for _, good := range []string{"a", "file.txt", "with space", strings.Repeat("x", MaxNameLen)} {
		if err := ValidName(good); err != nil {
			t.Errorf("ValidName(%q): %v", good, err)
		}
	}
	for _, bad := range []string{"", ".", "..", "a/b", "nul\x00", strings.Repeat("x", MaxNameLen+1)} {
		if err := ValidName(bad); err == nil {
			t.Errorf("ValidName(%q): want error", bad)
		}
	}
}

// Property: SplitPath is idempotent through JoinPath — cleaning a cleaned
// path changes nothing.
func TestSplitJoinIdempotentQuick(t *testing.T) {
	f := func(segs []string) bool {
		// Build an arbitrary absolute path out of the raw segments.
		path := "/" + strings.Join(segs, "/")
		parts, err := SplitPath(path)
		if err != nil {
			return true // invalid input is allowed to fail
		}
		again, err := SplitPath(JoinPath(parts))
		if err != nil {
			return false
		}
		return JoinPath(again) == JoinPath(parts)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: no output component is ever empty, ".", "..", or contains '/'.
func TestSplitPathComponentsCleanQuick(t *testing.T) {
	f := func(segs []string) bool {
		path := "/" + strings.Join(segs, "/")
		parts, err := SplitPath(path)
		if err != nil {
			return true
		}
		for _, p := range parts {
			if p == "" || p == "." || p == ".." || strings.ContainsRune(p, '/') {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// SplitPath allocates once, and SplitPathIn not at all when the caller's
// buffer has room; without it, the result is the same.
func TestSplitPathAllocations(t *testing.T) {
	const path = "/a/./b/../c//d"
	var buf [8]string
	if n := testing.AllocsPerRun(100, func() { _, _ = SplitPath(path) }); n != 1 {
		t.Errorf("SplitPath: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = SplitPathIn(buf[:0], path) }); n != 0 {
		t.Errorf("SplitPathIn into room enough: %v allocations, want 0", n)
	}
	for _, p := range []string{path, "/a/b/c/d/e/f/g/h/i"} {
		parts, err := SplitPathIn(buf[:0], p)
		want, _ := SplitPath(p)
		if err != nil || JoinPath(parts) != JoinPath(want) {
			t.Errorf("SplitPathIn(%q) = %q, %v; want %q", p, parts, err, want)
		}
	}
}
