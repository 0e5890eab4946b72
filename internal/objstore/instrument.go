package objstore

import (
	"arkfs/internal/obs"
)

// ObsStore wraps a Store and counts operations per verb (objstore.put,
// objstore.get, ...) plus failures (objstore.errors) in a metrics registry.
// Counters are resolved by name, so every ObsStore attached to the same
// registry — one per client in a deployment — feeds the same totals. Where
// it sits among the wrappers, and why, is DESIGN.md §7.3.
type ObsStore struct {
	Verbs
	inner Store

	cVerb               [numVerbs]*obs.Counter
	cErrors             *obs.Counter
	cBytesOut, cBytesIn *obs.Counter
}

// Instrument wraps inner with per-verb counting in reg. A nil registry
// returns inner unchanged (zero overhead when observability is off).
func Instrument(inner Store, reg *obs.Registry) Store {
	if reg == nil {
		return inner
	}
	s := &ObsStore{
		inner:     inner,
		cErrors:   reg.Counter("objstore.errors"),
		cBytesOut: reg.Counter("objstore.bytes.put"),
		cBytesIn:  reg.Counter("objstore.bytes.get"),
	}
	for v, name := range verbNames {
		s.cVerb[v] = reg.Counter("objstore." + name)
	}
	s.Verbs = s.do
	return s
}

// do counts one round trip: the verb, the bytes a Put carries and a Get or
// GetRange brings back, and a failure.
func (s *ObsStore) do(op Op) (Result, error) {
	s.cVerb[op.Verb].Inc()
	if len(op.Data) > 0 {
		s.cBytesOut.Add(int64(len(op.Data)))
	}
	r, err := Do(s.inner, op)
	if len(r.Data) > 0 {
		s.cBytesIn.Add(int64(len(r.Data)))
	}
	if err != nil {
		s.cErrors.Inc()
	}
	return r, err
}
