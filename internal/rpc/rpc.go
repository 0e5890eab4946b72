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

// Shed is the fabric-level pushback payload: a handler that refuses a request
// (a leader's admission gate) replies with a Shed, which the calling side
// converts into a typed types.ErrAgain retry-after error. Being
// a gob-registered payload, it crosses the TCP bridge intact, so
// errors.Is(err, types.ErrAgain) — and the retry-after hint — hold across
// process boundaries.
type Shed struct {
	AfterNS int64  // retry-after hint, nanoseconds
	Reason  string // shed reason ("admission"), for errors and counters
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

// Handler processes one request and returns the response. A handler runs on
// its caller's goroutine, in one of its server's slots, and may block through
// the environment (sleep, nested Calls), but must not hold locks across such
// blocking.
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
	hQWait      *obs.Histogram // arrival→slot, all servers
	hQSvc       *obs.Histogram // slot→handler return, all servers
	methodHists sync.Map       // method name -> *obs.Histogram
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
// Servers additionally split each delivered request into queue wait
// (rpc.queue.wait: arrival→slot, the wait for one of the handlers the server
// runs at once) and service time (rpc.queue.service: slot→handler return).
// Call before serving traffic; nil detaches.
func (n *Network) SetObs(reg *obs.Registry) {
	n.reg = reg
	n.cCalls = reg.Counter("rpc.calls")
	n.cDrops = reg.Counter("rpc.drops")
	n.cTimeouts = reg.Counter("rpc.timeouts")
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

// Server is a registered endpoint: a handler and the slots it runs in. A
// call runs the handler on its own goroutine once it holds a slot, so a
// server starts no goroutine, and a call that finds every slot taken waits.
type Server struct {
	net    *Network
	addr   Addr
	h      CtxHandler
	slots  *sim.Chan[struct{}] // one token per handler that may run at once
	closed sync.Once
}

// Listen registers addr with h, which at most workers calls run at once. It
// panics on a duplicate address, which is always a wiring bug.
func (n *Network) Listen(addr Addr, workers int, h Handler) *Server {
	return n.ListenCtx(addr, workers, func(_ context.Context, req any) any { return h(req) })
}

// ListenCtx is Listen for envelope-aware handlers: each request's handler
// context carries the caller's Meta, its queue wait included (MetaFrom).
func (n *Network) ListenCtx(addr Addr, workers int, h CtxHandler) *Server {
	s := &Server{net: n, addr: addr, h: h, slots: sim.NewChan[struct{}](n.env)}
	for i := 0; i < max(workers, 1); i++ {
		s.slots.Send(struct{}{})
	}
	n.mu.Lock()
	if _, dup := n.servers[addr]; dup {
		n.mu.Unlock()
		panic(fmt.Sprintf("rpc: duplicate listener %q", addr))
	}
	n.servers[addr] = s
	n.mu.Unlock()
	return s
}

// Close unregisters the server. Handlers already running complete; calls
// waiting for a slot, and subsequent calls, fail with ErrTimedOut.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.net.mu.Lock()
		delete(s.net.servers, s.addr)
		s.net.mu.Unlock()
		s.slots.Close()
	})
}

// serve runs req's handler on the calling goroutine once it holds a slot,
// the request having arrived at environment-clock time arrived. Queue-wait
// vs service-time decomposition: the time from arrival to the slot is what
// the request spent waiting on the server (the leader's forwarded-op queue,
// a lease shard's request queue); everything until the handler returns is
// service. The wait rides the handler's envelope so the serving layer can
// stamp it on its span.
func (s *Server) serve(meta Meta, req any, arrived time.Duration) (any, error) {
	n := s.net
	if _, ok := s.slots.Recv(); !ok {
		n.cTimeouts.Inc()
		return nil, fmt.Errorf("rpc: server %q closed: %w", s.addr, types.ErrTimedOut)
	}
	start := n.env.Now()
	meta.Wait = start - arrived
	resp := s.h(WithMeta(context.Background(), meta), req)
	s.slots.Send(struct{}{})
	if n.reg != nil {
		n.hQWait.ObserveTrace(meta.Wait, meta.Span.Trace)
		n.hQSvc.ObserveTrace(n.env.Now()-start, meta.Span.Trace)
	}
	return resp, nil
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
// continues the trace and charges the op's origin.
func (n *Network) CallFromCtx(ctx context.Context, from, to Addr, req any) (any, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return n.dispatch(MetaFrom(ctx), from, to, req)
}

func (n *Network) dispatch(meta Meta, from, to Addr, req any) (any, error) {
	if meta.Origin == "" {
		meta.Origin = from
	}
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
	resp, err := s.serve(meta, req, n.env.Now())
	if err != nil {
		return nil, err
	}
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
