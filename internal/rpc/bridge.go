package rpc

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"arkfs/internal/qos"
)

// TCP bridging lets the live cmd/ tools run ArkFS components in separate
// processes: an in-process Network address can be exposed on a TCP port
// (Bridge), and addresses of the form "tcp!host:port" transparently dial the
// remote peer on Call. Messages must be gob-registered (the lease and core
// packages do this in their init functions).
//
// Bridged calls run on real sockets and therefore only make sense under a
// RealEnv; the virtual-clock benchmarks never use them.

// TCPPrefix marks an address as remote: "tcp!127.0.0.1:7400".
const TCPPrefix = "tcp!"

// TCPAddr builds a remote address for a host:port.
func TCPAddr(hostport string) Addr { return Addr(TCPPrefix + hostport) }

// Bridge exposes the local listener at target on a TCP endpoint. Remote
// peers reach it with TCPAddr(server.Addr()). The incoming trace identity is
// relayed onto the local fabric, so a trace started in another process
// continues through the bridged call.
func (n *Network) Bridge(bind string, target Addr) (*TCPServer, error) {
	return ListenTCP(bind, func(ctx context.Context, req any) any {
		resp, err := n.CallFromCtx(ctx, "", target, req)
		if err != nil {
			// Typed pushback must survive the bridge: re-encode it as the
			// Shed payload so the remote fabric rehydrates the same EAGAIN.
			if sh := ShedFor(err); sh != nil {
				return sh
			}
			return nil // the caller surfaces a decode/transport error
		}
		return resp
	})
}

// tcpPool caches one connection per remote endpoint.
var tcpPool = struct {
	mu    sync.Mutex
	conns map[string]*TCPClient
}{conns: make(map[string]*TCPClient)}

// callTCP performs a call to a "tcp!host:port" address, carrying the
// caller's trace identity, ring epoch, and tenant in the wire envelope.
func (n *Network) callTCP(meta callMeta, to Addr, req any) (any, error) {
	hostport := strings.TrimPrefix(string(to), TCPPrefix)
	tcpPool.mu.Lock()
	cli := tcpPool.conns[hostport]
	tcpPool.mu.Unlock()
	if cli == nil {
		var err error
		cli, err = DialTCP(hostport)
		if err != nil {
			return nil, fmt.Errorf("rpc: bridge dial %s: %w", hostport, err)
		}
		tcpPool.mu.Lock()
		if existing := tcpPool.conns[hostport]; existing != nil {
			_ = cli.Close()
			cli = existing
		} else {
			tcpPool.conns[hostport] = cli
		}
		tcpPool.mu.Unlock()
	}
	resp, err := cli.CallEnvelope(meta.sc, meta.epoch, meta.tenant, qos.Wire(meta.bud), req)
	if err != nil {
		// Drop the broken connection so the next call re-dials.
		tcpPool.mu.Lock()
		if tcpPool.conns[hostport] == cli {
			delete(tcpPool.conns, hostport)
		}
		tcpPool.mu.Unlock()
		_ = cli.Close()
		return nil, err
	}
	return resp, nil
}

// dropPooled closes and forgets the pooled connection to hostport, if any.
func dropPooled(hostport string) {
	tcpPool.mu.Lock()
	cli := tcpPool.conns[hostport]
	delete(tcpPool.conns, hostport)
	tcpPool.mu.Unlock()
	if cli != nil {
		_ = cli.Close()
	}
}
