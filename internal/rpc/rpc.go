// Package rpc provides the request/response fabric ArkFS components use: the
// lease protocol between clients and the lease manager, and the
// client-to-leader forwarding of metadata operations (the paper used gRPC;
// this repo is stdlib-only).
//
// Two transports exist:
//   - Network: an in-process fabric bound to a sim.Env, charging the
//     configured latency per message. It works under both RealEnv and
//     VirtEnv and is what the benchmark harness uses.
//   - TCP (tcp.go): a gob-encoded wire transport for the live cmd/ tools.
package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

func init() {
	gob.Register(&Shed{})
}

// Shed is the fabric-level pushback payload: a server that refuses a request
// before (or instead of) running its handler replies with a Shed, which the
// calling side converts into a typed types.ErrAgain retry-after error. Being
// a gob-registered payload, it crosses the TCP bridge intact, so
// errors.Is(err, types.ErrAgain) — and the retry-after hint — hold across
// process boundaries.
type Shed struct {
	AfterNS int64  // retry-after hint, nanoseconds
	Reason  string // shed reason ("inbox", "queue-wait", ...), for counters
}

// Err converts the payload into the typed client-side error.
func (s *Shed) Err() error {
	return fmt.Errorf("rpc: request shed: %w",
		types.AgainAfter(time.Duration(s.AfterNS), s.Reason))
}

// ShedFor converts a typed EAGAIN error back into the wire payload, for
// handlers — the TCP bridge, a server's own admission gate — which can only
// return payloads. Returns nil when err is not a shed.
func ShedFor(err error) *Shed {
	var ra *types.RetryAfterError
	if errors.As(err, &ra) {
		return &Shed{AfterNS: int64(ra.After), Reason: ra.Reason}
	}
	if errors.Is(err, types.ErrAgain) {
		return &Shed{}
	}
	return nil
}

// Addr names an endpoint on a Network, e.g. "leasemgr" or "client-7".
type Addr string

// Handler processes one request and returns the response. Handlers run on
// server worker goroutines and may block through the environment (sleep,
// nested Calls), but must not hold locks across such blocking.
type Handler func(req any) any

// CtxHandler is a Handler that also receives the server-side context. The
// fabric populates it with the caller's envelope (MetaFrom), so handlers can
// parent their own spans under the caller's trace. The context carries no
// deadline: the simulated network cannot interrupt in-flight virtual-time
// waits, and a forwarded operation must not inherit the remote caller's
// cancellation.
type CtxHandler func(ctx context.Context, req any) any

// Sizer lets a message declare its wire size so bandwidth-limited links can
// charge transfer time; messages without it are charged latency only.
type Sizer interface {
	WireSize() int64
}

// Network is an in-process message fabric with a latency model.
type Network struct {
	env   sim.Env
	model sim.NetModel

	mu      sync.Mutex
	servers map[Addr]*Server
	fault   *FaultPlan

	// Observability. All sinks are nil-safe; a Network without SetObs runs
	// with zero instrumentation cost beyond nil checks.
	reg         *obs.Registry
	cCalls      *obs.Counter
	cDrops      *obs.Counter
	cTimeouts   *obs.Counter
	cShedInbox  *obs.Counter   // requests refused at the inbox bound
	cShedWait   *obs.Counter   // requests shed at pickup for excessive wait
	hQWait      *obs.Histogram // enqueue→worker-pickup, all servers
	hQSvc       *obs.Histogram // worker pickup→handler return, all servers
	methodHists sync.Map       // method name -> *obs.Histogram

	freeMu sync.Mutex
	free   []*call // calls whose exchange is over, for reuse
}

// NewNetwork creates a fabric in env; model applies to every message.
func NewNetwork(env sim.Env, model sim.NetModel) *Network {
	return &Network{env: env, model: model, servers: make(map[Addr]*Server)}
}

// Env returns the fabric's environment.
func (n *Network) Env() sim.Env { return n.env }

// SetFaultPlan installs (or, with nil, removes) the network's fault plan;
// every subsequent Call consults it in both directions.
func (n *Network) SetFaultPlan(p *FaultPlan) {
	n.mu.Lock()
	n.fault = p
	n.mu.Unlock()
}

func (n *Network) faultPlan() *FaultPlan {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fault
}

// SetObs attaches a metrics registry: every Call records rpc.calls, a
// per-method latency histogram (rpc.call.<Method>, environment-clock time
// including fault-plan delays), and rpc.drops / rpc.timeouts on failure.
// Server workers additionally split each delivered request into queue wait
// (rpc.queue.wait: enqueue→pickup) and service time (rpc.queue.service:
// pickup→handler return), attributed per tenant in the registry's tenant
// table. Call before serving traffic; nil detaches.
func (n *Network) SetObs(reg *obs.Registry) {
	n.reg = reg
	n.cCalls = reg.Counter("rpc.calls")
	n.cDrops = reg.Counter("rpc.drops")
	n.cTimeouts = reg.Counter("rpc.timeouts")
	n.cShedInbox = reg.Counter("qos.shed.rpc.inbox")
	n.cShedWait = reg.Counter("qos.shed.rpc.wait")
	n.hQWait = reg.Histogram("rpc.queue.wait")
	n.hQSvc = reg.Histogram("rpc.queue.service")
	n.methodHists = sync.Map{}
}

// methodNames caches reflect.Type → wire-method name ("WalkReq" → "Walk").
var methodNames sync.Map

func methodName(req any) string {
	t := reflect.TypeOf(req)
	if v, ok := methodNames.Load(t); ok {
		return v.(string)
	}
	e := t
	for e.Kind() == reflect.Ptr {
		e = e.Elem()
	}
	name := strings.TrimSuffix(e.Name(), "Req")
	if name == "" {
		name = e.String()
	}
	methodNames.Store(t, name)
	return name
}

// histFor returns the latency histogram for req's method (nil when obs is
// detached), caching the lookup so the hot path avoids the registry lock.
func (n *Network) histFor(req any) *obs.Histogram {
	if n.reg == nil {
		return nil
	}
	name := methodName(req)
	if v, ok := n.methodHists.Load(name); ok {
		return v.(*obs.Histogram)
	}
	h := n.reg.Histogram("rpc.call." + name)
	n.methodHists.Store(name, h)
	return h
}

// call is one request on its way through a server: pooled per Network with
// its reply channel, which carries exactly one answer per use.
type call struct {
	req   any
	meta  Meta
	enq   time.Duration // environment-clock time the request was enqueued
	reply *sim.Chan[any]
}

// ServerLimits bounds a server's inbox and queue wait; the zero value keeps
// the historical unbounded behavior.
type ServerLimits struct {
	// MaxInbox caps the requests queued awaiting a worker; excess calls are
	// refused immediately with a typed EAGAIN (0: unbounded). A bounded
	// inbox turns queue growth — the collapse mode under overload — into
	// prompt pushback the client's retry budget absorbs.
	MaxInbox int
	// ShedWait sheds a request at worker pickup when its measured
	// enqueue→pickup wait already exceeds this threshold: by then the
	// caller has likely timed out or retried, so running the handler only
	// burns service capacity on a dead request (0: never shed).
	ShedWait time.Duration
	// RetryAfter is the hint attached to inbox-bound refusals (default:
	// ShedWait when set, else 5ms).
	RetryAfter time.Duration
}

func (l *ServerLimits) retryAfter() time.Duration {
	switch {
	case l.RetryAfter > 0:
		return l.RetryAfter
	case l.ShedWait > 0:
		return l.ShedWait
	default:
		return 5 * time.Millisecond
	}
}

// Server is a registered endpoint with a pool of worker goroutines.
type Server struct {
	net    *Network
	addr   Addr
	inbox  *sim.Chan[*call]
	limits ServerLimits
	closed sync.Once
}

// Listen registers addr with workers goroutines running h. It panics on a
// duplicate address, which is always a wiring bug. Optional limits bound the
// inbox and queue wait (at most one ServerLimits applies).
func (n *Network) Listen(addr Addr, workers int, h Handler, limits ...ServerLimits) *Server {
	return n.ListenCtx(addr, workers, func(_ context.Context, req any) any { return h(req) }, limits...)
}

// ListenCtx is Listen for envelope-aware handlers: each request's handler
// context carries the caller's Meta, its queue wait included (MetaFrom).
func (n *Network) ListenCtx(addr Addr, workers int, h CtxHandler, limits ...ServerLimits) *Server {
	if workers <= 0 {
		workers = 1
	}
	s := &Server{net: n, addr: addr, inbox: sim.NewChan[*call](n.env)}
	if len(limits) > 0 {
		s.limits = limits[0]
	}
	n.mu.Lock()
	if _, dup := n.servers[addr]; dup {
		n.mu.Unlock()
		panic(fmt.Sprintf("rpc: duplicate listener %q", addr))
	}
	n.servers[addr] = s
	n.mu.Unlock()
	for i := 0; i < workers; i++ {
		n.env.Go(func() {
			for {
				c, ok := s.inbox.Recv()
				if !ok {
					return
				}
				// Queue-wait vs service-time decomposition: the time between
				// enqueue and this pickup is what the request spent waiting on
				// the worker pool (the leader's forwarded-op queue, a lease
				// shard's request queue); everything until the handler returns
				// is service. The wait rides the handler's envelope so the
				// serving layer can stamp it on its span.
				start := n.env.Now()
				wait := start - c.enq
				if sw := s.limits.ShedWait; sw > 0 && wait > sw {
					// The request aged out in the queue; shed it without
					// spending handler service time. The hint tells the
					// client how stale its wait already is.
					n.cShedWait.Inc()
					if n.reg != nil {
						n.hQWait.ObserveTrace(wait, c.meta.Span.Trace)
						n.reg.Tenants().ObserveWait(c.meta.Tenant, wait, 0, c.meta.Span.Trace)
					}
					c.reply.Send(&Shed{AfterNS: int64(wait), Reason: "queue-wait"})
					continue
				}
				m := c.meta
				m.Wait = wait
				resp := h(WithMeta(context.Background(), m), c.req)
				if n.reg != nil {
					svc := n.env.Now() - start
					n.hQWait.ObserveTrace(wait, m.Span.Trace)
					n.hQSvc.ObserveTrace(svc, m.Span.Trace)
					n.reg.Tenants().ObserveWait(m.Tenant, wait, svc, m.Span.Trace)
				}
				c.reply.Send(resp)
			}
		})
	}
	return s
}

// Close unregisters the server and stops its workers. In-flight calls
// complete; subsequent calls fail.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.net.mu.Lock()
		delete(s.net.servers, s.addr)
		s.net.mu.Unlock()
		s.inbox.Close()
	})
}

// Call sends req to the server at addr and waits for its response, charging
// one-way latency (plus bandwidth for Sizer messages) in each direction.
// Addresses with the "tcp!" prefix dial a bridged remote process instead.
// The caller's address is unknown, so only wildcard fault-plan rules apply;
// components with an identity use CallFrom.
func (n *Network) Call(to Addr, req any) (any, error) {
	return n.CallFrom("", to, req)
}

// CallFrom is Call with the caller's address attached, letting the fault
// plan apply per-link rules (partitions between address sets) in both the
// request and the response direction.
func (n *Network) CallFrom(from, to Addr, req any) (any, error) {
	return n.dispatch(Meta{}, from, to, req)
}

// CallFromCtx is CallFrom gated on a context: a context that is already done
// fails fast with its error before any network time is charged. Cancellation
// of a call already in flight is not modeled — virtual-time waits cannot be
// interrupted by real channels — so ctx acts as a deadline checked at the
// call boundary, which is where the retry loops in core re-enter. The
// envelope ctx carries (MetaFrom) rides the message, so the server side
// continues the trace and keeps the attribution, epoch and budget.
func (n *Network) CallFromCtx(ctx context.Context, from, to Addr, req any) (any, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return n.dispatch(MetaFrom(ctx), from, to, req)
}

func (n *Network) dispatch(meta Meta, from, to Addr, req any) (any, error) {
	if n.reg == nil {
		return n.callFrom(meta, from, to, req)
	}
	start := n.env.Now()
	resp, err := n.callFrom(meta, from, to, req)
	n.cCalls.Inc()
	n.histFor(req).ObserveTrace(n.env.Now()-start, meta.Span.Trace)
	return resp, err
}

func (n *Network) callFrom(meta Meta, from, to Addr, req any) (any, error) {
	fault := n.faultPlan()
	if fault != nil {
		if err := fault.apply(from, to, "request"); err != nil {
			n.cDrops.Inc()
			return nil, err
		}
	}
	if strings.HasPrefix(string(to), TCPPrefix) {
		resp, err := n.callTCP(meta, to, req)
		if err != nil {
			n.cTimeouts.Inc()
			return resp, err
		}
		if fault != nil {
			if ferr := fault.apply(to, from, "response"); ferr != nil {
				n.cDrops.Inc()
				return nil, ferr
			}
		}
		if sh, ok := resp.(*Shed); ok {
			return nil, sh.Err()
		}
		return resp, nil
	}
	n.mu.Lock()
	s, ok := n.servers[to]
	n.mu.Unlock()
	if !ok {
		n.cTimeouts.Inc()
		return nil, fmt.Errorf("rpc: no listener at %q: %w", to, types.ErrTimedOut)
	}
	var size int64
	if sz, ok := req.(Sizer); ok {
		size = sz.WireSize()
	}
	n.env.Sleep(n.model.TransferTime(size))
	if max := s.limits.MaxInbox; max > 0 && s.inbox.Len() >= max {
		// Bounded inbox: refuse at the door instead of queueing without
		// bound. The refusal is typed EAGAIN so budgeted clients back off.
		n.cShedInbox.Inc()
		return nil, fmt.Errorf("rpc: server %q inbox full: %w", to,
			types.AgainAfter(s.limits.retryAfter(), "inbox"))
	}
	c := n.newCall(req, meta)
	if !s.inbox.Send(c) {
		n.freeCall(c)
		n.cTimeouts.Inc()
		return nil, fmt.Errorf("rpc: server %q closed: %w", to, types.ErrTimedOut)
	}
	resp, ok := c.reply.Recv()
	if !ok {
		// Shut down before the answer came: a worker may still send it, so
		// the call is not reused.
		n.cTimeouts.Inc()
		return nil, fmt.Errorf("rpc: call to %q aborted: %w", to, types.ErrTimedOut)
	}
	n.freeCall(c)
	if fault != nil {
		// The handler ran; losing the response leaves its side effects in
		// place while this caller times out.
		if err := fault.apply(to, from, "response"); err != nil {
			n.cDrops.Inc()
			return nil, err
		}
	}
	var respSize int64
	if sz, ok := resp.(Sizer); ok {
		respSize = sz.WireSize()
	}
	n.env.Sleep(n.model.TransferTime(respSize))
	if sh, ok := resp.(*Shed); ok {
		return nil, sh.Err()
	}
	return resp, nil
}

// newCall takes a call from the pool, or makes one, for req.
func (n *Network) newCall(req any, meta Meta) *call {
	n.freeMu.Lock()
	var c *call
	if k := len(n.free) - 1; k >= 0 {
		c, n.free[k] = n.free[k], nil
		n.free = n.free[:k]
	}
	n.freeMu.Unlock()
	if c == nil {
		c = &call{reply: sim.NewChan[any](n.env)}
	}
	c.req, c.meta, c.enq = req, meta, n.env.Now()
	return c
}

// freeCall returns a call whose answer has been received, or that never
// reached a server, to the pool.
func (n *Network) freeCall(c *call) {
	*c = call{reply: c.reply}
	n.freeMu.Lock()
	n.free = append(n.free, c)
	n.freeMu.Unlock()
}
