package objstore

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// FaultStore wraps a Store and injects failures, used by crash-consistency,
// recovery, and retry tests. Failures are symmetric: it can fail the next N
// writes (Put/Delete) or reads (Get/GetRange/List/Head) matching a key
// prefix, truncate written values to simulate torn writes, fail every verb
// probabilistically from a seeded RNG ("flaky mode"), and add fixed latency
// to every operation.
type FaultStore struct {
	Verbs
	Inner Store

	mu          sync.Mutex
	env         sim.Env
	latency     time.Duration
	failPrefix  string
	failsLeft   int
	readPrefix  string
	readsLeft   int
	tornPrefix  string
	tornLeft    int
	flakyProb   float64
	rng         *rand.Rand
	opsObserved int
	injected    int

	corruptPrefix string
	corruptLeft   int

	corruptReadPrefix string
	corruptReadProb   float64
	corruptReadRNG    *rand.Rand

	corruptNextReadPrefix string
	corruptNextReadLeft   int

	tornReadPrefix string
	tornReadLeft   int
	tornReadLen    map[string]int64
}

// NewFaultStore wraps inner with no faults armed.
func NewFaultStore(inner Store) *FaultStore {
	f := &FaultStore{Inner: inner}
	f.Verbs = f.do
	return f
}

// FailNext arms the store to fail the next n Put/Delete operations whose key
// has the given prefix.
func (f *FaultStore) FailNext(prefix string, n int) {
	f.mu.Lock()
	f.failPrefix, f.failsLeft = prefix, n
	f.mu.Unlock()
}

// FailNextRead arms the store to fail the next n read operations
// (Get/GetRange/List/Head) whose key or prefix argument has the given prefix.
func (f *FaultStore) FailNextRead(prefix string, n int) {
	f.mu.Lock()
	f.readPrefix, f.readsLeft = prefix, n
	f.mu.Unlock()
}

// TearNext arms the store to write only half of the next n values whose key
// has the given prefix — a torn write as seen after a power loss.
func (f *FaultStore) TearNext(prefix string, n int) {
	f.mu.Lock()
	f.tornPrefix, f.tornLeft = prefix, n
	f.mu.Unlock()
}

// CorruptNext arms the store to flip one bit in the next n values written
// (Put) whose key has the given prefix — bit rot at rest: the corrupt bytes
// persist and every later read returns them. Symmetric with TearNext and
// counted in Injected().
func (f *FaultStore) CorruptNext(prefix string, n int) {
	f.mu.Lock()
	f.corruptPrefix, f.corruptLeft = prefix, n
	f.mu.Unlock()
}

// SetCorruptReads makes every Get/GetRange whose key has the given prefix
// return a copy with one bit flipped, with probability prob drawn from an RNG
// seeded with seed so runs are reproducible. The corruption is transient —
// the stored object is untouched, so a retry reads clean bytes — modelling a
// fault on the wire rather than rot at rest. prob <= 0 disables the mode.
func (f *FaultStore) SetCorruptReads(prefix string, prob float64, seed int64) {
	f.mu.Lock()
	f.corruptReadPrefix, f.corruptReadProb = prefix, prob
	f.corruptReadRNG = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// CorruptNextRead arms the store to flip one bit in the next n values served
// by Get/GetRange whose key has the given prefix. Like SetCorruptReads the
// corruption is transient — the stored object is untouched and a retry reads
// clean bytes — but the trigger is a deterministic countdown rather than a
// probability, so tests can corrupt exactly one read.
func (f *FaultStore) CorruptNextRead(prefix string, n int) {
	f.mu.Lock()
	f.corruptNextReadPrefix, f.corruptNextReadLeft = prefix, n
	f.mu.Unlock()
}

// TearNextRead arms the store to serve the next n objects read (Get or
// GetRange) whose key has the given prefix as if they had been truncated to
// half their stored length. A key torn this way stays torn: every later read
// of it — including ranged readahead — observes the same short object, so a
// reader cannot see the full value reappear mid-sequence.
func (f *FaultStore) TearNextRead(prefix string, n int) {
	f.mu.Lock()
	f.tornReadPrefix, f.tornReadLeft = prefix, n
	if f.tornReadLen == nil {
		f.tornReadLen = make(map[string]int64)
	}
	f.mu.Unlock()
}

// SetFlaky makes every operation fail with probability prob, drawn from an
// RNG seeded with seed so runs are reproducible. prob <= 0 disables flaky
// mode.
func (f *FaultStore) SetFlaky(prob float64, seed int64) {
	f.mu.Lock()
	f.flakyProb = prob
	f.rng = rand.New(rand.NewSource(seed))
	f.mu.Unlock()
}

// InjectLatency adds a fixed env-clock sleep to every operation, simulating a
// slow or congested backend.
func (f *FaultStore) InjectLatency(env sim.Env, d time.Duration) {
	f.mu.Lock()
	f.env, f.latency = env, d
	f.mu.Unlock()
}

// Ops returns how many operations passed through (every verb), for test
// assertions.
func (f *FaultStore) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opsObserved
}

// Injected returns how many operations failed with an injected error.
func (f *FaultStore) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// observe records one operation on key, applies latency, and returns an
// injected error or nil. Put and Delete draw on the FailNext budget, the
// other verbs on FailNextRead's; flaky mode applies to both.
func (f *FaultStore) observe(verb Verb, key string) error {
	read := verb != VerbPut && verb != VerbDelete
	f.mu.Lock()
	f.opsObserved++
	env, lat := f.env, f.latency
	fail := false
	switch {
	case f.flakyProb > 0 && f.rng != nil && f.rng.Float64() < f.flakyProb:
		fail = true
	case read && f.readsLeft > 0 && hasPrefix(key, f.readPrefix):
		f.readsLeft--
		fail = true
	case !read && f.failsLeft > 0 && hasPrefix(key, f.failPrefix):
		f.failsLeft--
		fail = true
	}
	if fail {
		f.injected++
	}
	f.mu.Unlock()
	if lat > 0 && env != nil {
		env.Sleep(lat)
	}
	if fail {
		return fmt.Errorf("faultstore: injected %s failure on %q: %w", verb, key, types.ErrIO)
	}
	return nil
}

func (f *FaultStore) shouldTear(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.tornLeft > 0 && hasPrefix(key, f.tornPrefix) {
		f.tornLeft--
		f.injected++
		return true
	}
	return false
}

func (f *FaultStore) shouldCorrupt(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corruptLeft > 0 && hasPrefix(key, f.corruptPrefix) {
		f.corruptLeft--
		f.injected++
		return true
	}
	return false
}

// corruptOnRead decides whether a read of key should return flipped bytes
// and, if so, which byte index the flip lands on (reduced modulo the value
// length by the caller).
func (f *FaultStore) corruptOnRead(key string) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.corruptNextReadLeft > 0 && hasPrefix(key, f.corruptNextReadPrefix) {
		f.corruptNextReadLeft--
		f.injected++
		return 9973, true // fixed offset, reduced modulo the value length
	}
	if f.corruptReadProb > 0 && f.corruptReadRNG != nil && hasPrefix(key, f.corruptReadPrefix) &&
		f.corruptReadRNG.Float64() < f.corruptReadProb {
		f.injected++
		return f.corruptReadRNG.Intn(1 << 20), true
	}
	return 0, false
}

// tearOnRead reports the length key should be served at, consuming one armed
// read-tear (recording size/2 for the key) or recalling a previous one.
func (f *FaultStore) tearOnRead(key string, size int64) (int64, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if tlen, ok := f.tornReadLen[key]; ok {
		return tlen, true
	}
	if f.tornReadLeft > 0 && hasPrefix(key, f.tornReadPrefix) {
		f.tornReadLeft--
		f.injected++
		if f.tornReadLen == nil {
			f.tornReadLen = make(map[string]int64)
		}
		f.tornReadLen[key] = size / 2
		return size / 2, true
	}
	return 0, false
}

// flipBit returns data with one bit inverted at pos (reduced modulo the
// length). The input is assumed to be a caller-owned copy.
func flipBit(data []byte, pos int) []byte {
	if len(data) == 0 {
		return data
	}
	data[pos%len(data)] ^= 0x01
	return data
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// do is one round trip with whatever is armed applied to it: an injected
// failure before the inner store is reached, a torn or bit-flipped value on
// the way in (Put), a torn or bit-flipped one on the way out (Get, GetRange).
func (f *FaultStore) do(op Op) (Result, error) {
	if err := f.observe(op.Verb, op.Key); err != nil {
		return Result{}, err
	}
	if op.Verb == VerbPut {
		if f.shouldTear(op.Key) {
			op.Data = op.Data[:len(op.Data)/2]
		} else if f.shouldCorrupt(op.Key) {
			cp := append([]byte(nil), op.Data...)
			op.Data = flipBit(cp, len(cp)/2)
		}
	}
	r, err := Do(f.Inner, op)
	if err != nil {
		return r, err
	}
	switch op.Verb {
	case VerbGet:
		if tlen, torn := f.tearOnRead(op.Key, int64(len(r.Data))); torn && int64(len(r.Data)) > tlen {
			r.Data = r.Data[:tlen]
		}
	case VerbGetRange:
		// A key torn by TearNextRead is served as the same short object Get
		// reports: bytes beyond the torn length do not exist for the reader.
		if !f.readTearArmedOrRecorded(op.Key) {
			break
		}
		if size, herr := f.Inner.Head(op.Key); herr == nil {
			if tlen, torn := f.tearOnRead(op.Key, size); torn {
				if op.Off >= tlen {
					r.Data = nil
				} else if op.Off+int64(len(r.Data)) > tlen {
					r.Data = r.Data[:tlen-op.Off]
				}
			}
		}
	default:
		return r, nil
	}
	if pos, ok := f.corruptOnRead(op.Key); ok {
		r.Data = flipBit(r.Data, pos)
	}
	return r, nil
}

// readTearArmedOrRecorded reports whether a read-tear could apply to key, so
// GetRange only pays the extra Head when one is armed or already recorded.
func (f *FaultStore) readTearArmedOrRecorded(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.tornReadLen[key]; ok {
		return true
	}
	return f.tornReadLeft > 0 && hasPrefix(key, f.tornReadPrefix)
}
