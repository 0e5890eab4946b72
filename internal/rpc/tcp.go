package rpc

import (
	"context"
	"encoding/gob"
	"fmt"
	"net"
	"sync"

	"arkfs/internal/obs"
	"arkfs/internal/types"
)

// envelope frames one gob-encoded message on the wire: the payload and the
// caller's Meta, which envelopeFor and meta convert to and from the fields
// below. The queue wait does not cross: the fabric that serves the call
// measures its own.
type envelope struct {
	Trace, Span uint64
	Origin      Addr
	Payload     any
}

func envelopeFor(m Meta, payload any) *envelope {
	return &envelope{
		Trace: uint64(m.Span.Trace), Span: uint64(m.Span.Span),
		Origin: m.Origin, Payload: payload,
	}
}

func (e *envelope) meta() Meta {
	return Meta{
		Span:   obs.SpanContext{Trace: obs.TraceID(e.Trace), Span: obs.SpanID(e.Span)},
		Origin: e.Origin,
	}
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
// handler context carries the remote caller's Meta.
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
		out := envelope{Payload: s.handler(WithMeta(context.Background(), in.meta()), in.Payload)}
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

// Call performs one request/response exchange; m is the caller's envelope.
func (c *TCPClient) Call(m Meta, req any) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(envelopeFor(m, req)); err != nil {
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
