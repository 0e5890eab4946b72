package rpc

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"arkfs/internal/obs"
	"arkfs/internal/qos"
	"arkfs/internal/types"
)

// envelope frames one gob-encoded message on the wire. Trace/Span carry the
// caller's trace identity across the process boundary (zero when untraced) —
// the TCP analogue of the SpanContext the in-process fabric attaches to each
// call. RingEpoch carries the caller's lease-ring epoch (0 when unsharded),
// so a bridged lease shard can detect stale clients exactly like an
// in-process one. Tenant carries the caller's tenant attribution ("" when
// unknown), so per-tenant accounting survives the hop too. Budget carries the
// caller's remaining retry-budget tokens (qos.NoBudget when unbudgeted): the
// server side derives a budget from it, so nested retries in another process
// still cannot exceed what the originating operation had left.
type envelope struct {
	Trace     uint64
	Span      uint64
	RingEpoch uint64
	Tenant    string
	Budget    int64
	Payload   any
}

// TCPServer serves CtxHandler over a TCP listener using gob encoding, one
// goroutine per connection with pipelined requests. Callers must gob.Register
// their concrete message types.
type TCPServer struct {
	ln      net.Listener
	handler CtxHandler
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// ListenTCP starts a server on addr ("host:port", ":0" for ephemeral). The
// handler context carries the remote caller's trace identity when the
// envelope names one.
func ListenTCP(addr string, h CtxHandler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and open connections and waits for workers.
func (s *TCPServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	_ = s.ln.Close()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	// A connection this process pooled to the endpoint is dead now, and a
	// later listener may be given the same port.
	dropPooled(s.Addr())
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var in envelope
		if err := dec.Decode(&in); err != nil {
			return
		}
		ctx := context.Background()
		sc := obs.SpanContext{Trace: obs.TraceID(in.Trace), Span: obs.SpanID(in.Span)}
		if sc.Valid() {
			ctx = obs.WithRemote(ctx, sc)
		}
		if in.RingEpoch != 0 {
			ctx = WithRingEpoch(ctx, in.RingEpoch)
		}
		if in.Tenant != "" {
			ctx = obs.WithTenant(ctx, in.Tenant)
		}
		if b := qos.BudgetFromWire(in.Budget); b != nil {
			ctx = qos.WithBudget(ctx, b)
		}
		out := envelope{Trace: in.Trace, Span: in.Span, Payload: s.handler(ctx, in.Payload)}
		if err := enc.Encode(&out); err != nil {
			return
		}
	}
}

// TCPClient is a single-connection client with serialized calls; the live
// tools create one per peer.
type TCPClient struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// DialTCP connects to a TCPServer.
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s: %w", addr, err)
	}
	return &TCPClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// Call performs one request/response exchange. sc is the caller's trace
// identity; pass the zero SpanContext when untraced.
func (c *TCPClient) Call(sc obs.SpanContext, req any) (any, error) {
	return c.CallEnvelope(sc, 0, "", qos.NoBudget, req)
}

// CallEnvelope is Call with the full envelope metadata: the caller's
// lease-ring epoch (0 when unsharded), tenant attribution ("" when unknown),
// and remaining retry-budget tokens (qos.NoBudget when unbudgeted).
func (c *TCPClient) CallEnvelope(sc obs.SpanContext, ringEpoch uint64, tenant string, budget int64, req any) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(&envelope{
		Trace: uint64(sc.Trace), Span: uint64(sc.Span),
		RingEpoch: ringEpoch, Tenant: tenant, Budget: budget, Payload: req,
	}); err != nil {
		return nil, fmt.Errorf("rpc: send: %w: %w", err, types.ErrIO)
	}
	var resp envelope
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("rpc: recv: %w: %w", err, types.ErrIO)
	}
	return resp.Payload, nil
}

// Close closes the connection.
func (c *TCPClient) Close() error { return c.conn.Close() }
