package types

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The POSIX-style error set. ArkFS components wrap these with context via
// fmt.Errorf("...: %w", err); callers test with errors.Is, mirroring how a
// FUSE layer would map them to errno values.
var (
	ErrNotExist    = errors.New("no such file or directory")         // ENOENT
	ErrExist       = errors.New("file exists")                       // EEXIST
	ErrNotDir      = errors.New("not a directory")                   // ENOTDIR
	ErrIsDir       = errors.New("is a directory")                    // EISDIR
	ErrNotEmpty    = errors.New("directory not empty")               // ENOTEMPTY
	ErrAccess      = errors.New("permission denied")                 // EACCES
	ErrPerm        = errors.New("operation not permitted")           // EPERM
	ErrInval       = errors.New("invalid argument")                  // EINVAL
	ErrNameTooLong = errors.New("file name too long")                // ENAMETOOLONG
	ErrNoSpace     = errors.New("no space left on device")           // ENOSPC
	ErrStale       = errors.New("stale file handle")                 // ESTALE
	ErrBadFD       = errors.New("bad file descriptor")               // EBADF
	ErrBusy        = errors.New("device or resource busy")           // EBUSY
	ErrIO          = errors.New("input/output error")                // EIO
	ErrLoop        = errors.New("too many levels of symbolic links") // ELOOP
	ErrXDev        = errors.New("invalid cross-device link")         // EXDEV
	ErrTimedOut    = errors.New("operation timed out")               // ETIMEDOUT
	ErrReadOnly    = errors.New("read-only file system")             // EROFS
	ErrAgain       = errors.New("resource temporarily unavailable")  // EAGAIN
	ErrNotLeader   = errors.New("not the directory leader")          // ArkFS-internal
	ErrLeaseLost   = errors.New("directory lease lost")              // ArkFS-internal
)

// ErrIntegrity reports a checksum or framing failure on a persisted record:
// the bytes came back, but they are not the bytes that were written. It wraps
// ErrIO so legacy errors.Is(err, ErrIO) checks keep matching, while readers
// that care can distinguish detected corruption from plain I/O failure.
var ErrIntegrity = fmt.Errorf("data integrity check failed: %w", ErrIO)

// RetryAfterError is the typed EAGAIN carrier: an admission controller (a
// leader's, or the object-store gateway's) rejected the operation and
// suggests retrying after a delay. It wraps ErrAgain so errors.Is(err, ErrAgain)
// matches, and it survives the string-encoded RPC boundary: Errno renders it
// as "EAGAIN@<ns>" and FromErrno rehydrates the hint on the far side.
type RetryAfterError struct {
	After  time.Duration // suggested backoff before retrying
	Reason string        // local shed-reason tag (not carried over the wire)
}

func (e *RetryAfterError) Error() string {
	if e.Reason != "" {
		return fmt.Sprintf("%v (%s, retry after %v)", ErrAgain, e.Reason, e.After)
	}
	return fmt.Sprintf("%v (retry after %v)", ErrAgain, e.After)
}

func (e *RetryAfterError) Unwrap() error { return ErrAgain }

// AgainAfter builds a typed retry-after pushback error.
func AgainAfter(after time.Duration, reason string) error {
	return &RetryAfterError{After: after, Reason: reason}
}

// RetryAfter extracts the retry-after hint from a typed EAGAIN, reporting
// whether one was present.
func RetryAfter(err error) (time.Duration, bool) {
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		return ra.After, true
	}
	return 0, false
}

// Errno returns the Linux errno-style symbolic name for a wrapped error,
// or "EIO" for anything unrecognized; benchmark harnesses and the CLI use it
// for compact reporting.
func Errno(err error) string {
	switch {
	case err == nil:
		return "OK"
	case errors.Is(err, ErrNotExist):
		return "ENOENT"
	case errors.Is(err, ErrExist):
		return "EEXIST"
	case errors.Is(err, ErrNotDir):
		return "ENOTDIR"
	case errors.Is(err, ErrIsDir):
		return "EISDIR"
	case errors.Is(err, ErrNotEmpty):
		return "ENOTEMPTY"
	case errors.Is(err, ErrAccess):
		return "EACCES"
	case errors.Is(err, ErrPerm):
		return "EPERM"
	case errors.Is(err, ErrInval):
		return "EINVAL"
	case errors.Is(err, ErrNameTooLong):
		return "ENAMETOOLONG"
	case errors.Is(err, ErrNoSpace):
		return "ENOSPC"
	case errors.Is(err, ErrStale):
		return "ESTALE"
	case errors.Is(err, ErrBadFD):
		return "EBADF"
	case errors.Is(err, ErrBusy):
		return "EBUSY"
	case errors.Is(err, ErrLoop):
		return "ELOOP"
	case errors.Is(err, ErrXDev):
		return "EXDEV"
	case errors.Is(err, ErrTimedOut):
		return "ETIMEDOUT"
	case errors.Is(err, ErrReadOnly):
		return "EROFS"
	case errors.Is(err, ErrAgain):
		if d, ok := RetryAfter(err); ok && d > 0 {
			return "EAGAIN@" + strconv.FormatInt(d.Nanoseconds(), 10)
		}
		return "EAGAIN"
	case errors.Is(err, ErrIntegrity):
		// Must precede any ErrIO fallback: ErrIntegrity wraps ErrIO.
		return "EINTEGRITY"
	case errors.Is(err, ErrNotLeader):
		return "ENOTLEADER"
	case errors.Is(err, ErrLeaseLost):
		return "ELEASELOST"
	default:
		return "EIO"
	}
}

// errnoTable maps every symbolic name Errno can produce back to its sentinel.
// Keeping the two directions in one package guarantees the round trip: an
// error carried across the RPC boundary as a string rehydrates to the same
// sentinel, so errors.Is behaves identically on a redirected client.
var errnoTable = map[string]error{
	"ENOENT":       ErrNotExist,
	"EEXIST":       ErrExist,
	"ENOTDIR":      ErrNotDir,
	"EISDIR":       ErrIsDir,
	"ENOTEMPTY":    ErrNotEmpty,
	"EACCES":       ErrAccess,
	"EPERM":        ErrPerm,
	"EINVAL":       ErrInval,
	"ENAMETOOLONG": ErrNameTooLong,
	"ENOSPC":       ErrNoSpace,
	"ESTALE":       ErrStale,
	"EBADF":        ErrBadFD,
	"EBUSY":        ErrBusy,
	"EIO":          ErrIO,
	"ELOOP":        ErrLoop,
	"EXDEV":        ErrXDev,
	"ETIMEDOUT":    ErrTimedOut,
	"EROFS":        ErrReadOnly,
	"EAGAIN":       ErrAgain,
	"EINTEGRITY":   ErrIntegrity,
	"ENOTLEADER":   ErrNotLeader,
	"ELEASELOST":   ErrLeaseLost,
}

// FromErrno rehydrates a symbolic errno name (as produced by Errno) into the
// corresponding typed sentinel. Unknown names and "" degrade to ErrIO; "OK"
// returns nil.
func FromErrno(name string) error {
	if name == "OK" {
		return nil
	}
	if rest, ok := strings.CutPrefix(name, "EAGAIN@"); ok {
		if ns, err := strconv.ParseInt(rest, 10, 64); err == nil && ns >= 0 {
			return &RetryAfterError{After: time.Duration(ns)}
		}
		return ErrAgain
	}
	if err, ok := errnoTable[name]; ok {
		return err
	}
	return ErrIO
}
