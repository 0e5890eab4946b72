package types

import (
	"fmt"
	"strings"
)

// MaxNameLen bounds a single path component, matching NAME_MAX on Linux.
const MaxNameLen = 255

// ValidName checks a single directory entry name.
func ValidName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return fmt.Errorf("types: reserved name %q: %w", name, ErrInval)
	case len(name) > MaxNameLen:
		return fmt.Errorf("types: name %q: %w", name[:16]+"...", ErrNameTooLong)
	case strings.ContainsRune(name, '/'):
		return fmt.Errorf("types: name %q contains '/': %w", name, ErrInval)
	case strings.ContainsRune(name, 0):
		return fmt.Errorf("types: name contains NUL: %w", ErrInval)
	}
	return nil
}

// SplitPath cleans an absolute path and returns its components. "." and
// empty components are dropped; ".." is resolved lexically (it cannot escape
// the root). The empty slice denotes the root directory itself.
func SplitPath(path string) ([]string, error) { return SplitPathIn(nil, path) }

// SplitPathIn is SplitPath that keeps the components in buf's array when it
// has room for one per '/' in path, so a caller can split into an array on its
// own stack; otherwise it allocates once.
func SplitPathIn(buf []string, path string) ([]string, error) {
	if path == "" {
		return nil, fmt.Errorf("types: empty path: %w", ErrInval)
	}
	if path[0] != '/' {
		return nil, fmt.Errorf("types: path %q is not absolute: %w", path, ErrInval)
	}
	parts := buf[:0]
	if n := strings.Count(path, "/"); n > cap(parts) { // a component follows each '/'
		parts = make([]string, 0, n)
	}
	for rest, more := path[1:], true; more; {
		var c string
		c, rest, more = strings.Cut(rest, "/")
		switch c {
		case "", ".":
		case "..":
			if len(parts) > 0 {
				parts = parts[:len(parts)-1]
			}
		default:
			if len(c) > MaxNameLen {
				return nil, fmt.Errorf("types: component in %q: %w", path, ErrNameTooLong)
			}
			parts = append(parts, c)
		}
	}
	return parts, nil
}

// SplitDir splits an absolute path into the parent's components and the
// final name. It fails on the root itself, which has no parent entry.
func SplitDir(path string) (dir []string, name string, err error) {
	parts, err := SplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", fmt.Errorf("types: %q has no parent entry: %w", path, ErrInval)
	}
	return parts[:len(parts)-1], parts[len(parts)-1], nil
}

// JoinPath reassembles components into a clean absolute path.
func JoinPath(parts []string) string {
	if len(parts) == 0 {
		return "/"
	}
	return "/" + strings.Join(parts, "/")
}
