package rpc

import (
	"context"
	"time"

	"arkfs/internal/obs"
)

// Meta is the envelope of a call: what rides beside every message, in process
// and across the TCP bridge, and what the serving side's handler context
// carries. It travels by value.
type Meta struct {
	Span   obs.SpanContext // the trace a call continues, zero when untraced
	Tenant string          // the tenant the op is attributed to, "" when unknown
	Wait   time.Duration   // serving side: arrival→slot, as the fabric measured it
}

type metaKey struct{}

// metaCtx carries a Meta in one allocation.
type metaCtx struct {
	context.Context
	meta Meta
}

func (c *metaCtx) Value(key any) any {
	if _, ok := key.(metaKey); ok {
		return &c.meta
	}
	return c.Context.Value(key)
}

// WithMeta returns ctx carrying m: the envelope of every call made under it.
func WithMeta(ctx context.Context, m Meta) context.Context {
	return &metaCtx{Context: ctx, meta: m}
}

// MetaFrom returns the envelope ctx carries, the zero Meta when none. Span
// names the local span when one is attached (obs.WithSpan): that is the span
// a call made under ctx continues.
func MetaFrom(ctx context.Context) Meta {
	var m Meta
	if ctx == nil {
		return m
	}
	if p, ok := ctx.Value(metaKey{}).(*Meta); ok {
		m = *p
	}
	if sp := obs.SpanFrom(ctx); sp != nil {
		m.Span = sp.Context()
	}
	return m
}
