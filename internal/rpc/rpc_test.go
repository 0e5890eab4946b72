package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

type echoReq struct {
	N    int
	Size int64
}

func (e echoReq) WireSize() int64 { return e.Size }

func TestNetworkCallRoundTrip(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	srv := net.Listen("echo", 2, func(req any) any {
		return req.(echoReq).N * 2
	})
	defer srv.Close()
	resp, err := net.Call("echo", echoReq{N: 21})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int) != 42 {
		t.Fatalf("resp = %v", resp)
	}
}

func TestNetworkUnknownAddr(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	if _, err := net.Call("ghost", 1); !errors.Is(err, types.ErrTimedOut) {
		t.Fatalf("want ErrTimedOut, got %v", err)
	}
}

func TestNetworkClosedServer(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	srv := net.Listen("s", 1, func(req any) any { return req })
	srv.Close()
	if _, err := net.Call("s", 1); err == nil {
		t.Fatal("call to closed server succeeded")
	}
}

func TestNetworkDuplicateListenerPanics(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	srv := net.Listen("dup", 1, func(req any) any { return req })
	defer srv.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate listener")
		}
	}()
	net.Listen("dup", 1, func(req any) any { return req })
}

func TestNetworkLatencyCharged(t *testing.T) {
	env := sim.NewVirtEnv()
	var elapsed time.Duration
	env.Run(func() {
		net := NewNetwork(env, sim.NetModel{Latency: 5 * time.Millisecond, Bandwidth: 1 << 20})
		srv := net.Listen("svc", 1, func(req any) any { return struct{}{} })
		defer srv.Close()
		start := env.Now()
		// 1 MiB request at 1 MiB/s: 1s + 5ms out, 5ms back.
		if _, err := net.Call("svc", echoReq{Size: 1 << 20}); err != nil {
			t.Error(err)
		}
		elapsed = env.Now() - start
	})
	want := time.Second + 10*time.Millisecond
	if elapsed != want {
		t.Fatalf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestNetworkServerSerialization(t *testing.T) {
	// A 1-worker server with 10ms handler serializes 8 callers: 80ms total.
	env := sim.NewVirtEnv()
	var elapsed time.Duration
	env.Run(func() {
		net := NewNetwork(env, sim.NetModel{})
		srv := net.Listen("mds", 1, func(req any) any {
			env.Sleep(10 * time.Millisecond)
			return struct{}{}
		})
		defer srv.Close()
		start := env.Now()
		g := sim.NewGroup(env)
		for i := 0; i < 8; i++ {
			g.Go(func() {
				if _, err := net.Call("mds", 0); err != nil {
					t.Error(err)
				}
			})
		}
		g.Wait()
		elapsed = env.Now() - start
	})
	if elapsed != 80*time.Millisecond {
		t.Fatalf("elapsed = %v, want 80ms", elapsed)
	}
}

func TestNetworkNestedCalls(t *testing.T) {
	// a calls b inside a handler — the forwarding pattern leaders use.
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	b := net.Listen("b", 1, func(req any) any { return req.(int) + 1 })
	defer b.Close()
	a := net.Listen("a", 2, func(req any) any {
		resp, err := net.Call("b", req)
		if err != nil {
			return -1
		}
		return resp.(int) + 10
	})
	defer a.Close()
	resp, err := net.Call("a", 5)
	if err != nil || resp.(int) != 16 {
		t.Fatalf("resp = %v, %v", resp, err)
	}
}

// TestServerSlots: a server is a handler and its slots, under the wall clock
// and the virtual one alike. Listening starts no goroutine; a one-slot server
// runs one handler at a time, serving waiting calls in arrival order; Close
// fails the calls waiting for a slot and lets the running handler finish.
func TestServerSlots(t *testing.T) {
	body := func(t *testing.T, env sim.Env) {
		net := NewNetwork(env, sim.NetModel{})
		before := runtime.NumGoroutine()
		for i := 0; i < 64; i++ {
			net.Listen(Addr(fmt.Sprint("idle-", i)), 16, func(req any) any { return req })
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("64 listeners started %d goroutines, want 0", after-before)
		}

		// waitFor polls cond through the environment, so a virtual clock
		// lets the callers it waits on run.
		waitFor := func(what string, cond func() bool) bool {
			for i := 0; !cond(); i++ {
				if i == 5000 {
					t.Errorf("never: %s", what)
					return false
				}
				env.Sleep(time.Millisecond)
			}
			return true
		}
		gate := sim.NewChan[struct{}](env)
		var running atomic.Int32
		var mu sync.Mutex
		var order []int
		srv := net.Listen("one", 1, func(req any) any {
			if running.Add(1) > 1 {
				t.Errorf("call %d: two handlers ran at once", req)
			}
			mu.Lock()
			order = append(order, req.(int))
			mu.Unlock()
			if req == 0 {
				gate.Recv()
			} else {
				env.Sleep(100 * time.Microsecond)
			}
			running.Add(-1)
			return req
		})
		started := func() bool { mu.Lock(); defer mu.Unlock(); return len(order) > 0 }
		errs := make([]error, 8)
		g := sim.NewGroup(env)
		// A call counts as waiting once it has entered the fabric and had a
		// moment to reach the slot; a virtual clock runs it there before
		// the moment ends.
		var entered, returned atomic.Int32
		call := func(i int) {
			g.Go(func() {
				entered.Add(1)
				_, errs[i] = net.Call("one", i)
				returned.Add(1)
			})
		}
		waiting := func(what string, n int32) bool {
			if !waitFor(what, func() bool { return entered.Load() == n }) {
				return false
			}
			env.Sleep(20 * time.Millisecond)
			return true
		}
		call(0)
		if !waitFor("call 0 ran", started) {
			return
		}
		for i := 1; i < len(errs); i++ {
			call(i)
			if !waiting(fmt.Sprint("call ", i, " waited"), int32(i+1)) {
				return
			}
		}
		gate.Send(struct{}{})
		g.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("served in order %v, want %v", order, want)
		}

		order = nil
		entered.Store(0)
		returned.Store(0)
		g = sim.NewGroup(env)
		call(0)
		if !waitFor("call 0 ran", started) {
			return
		}
		call(1)
		if !waiting("call 1 waited", 2) {
			return
		}
		srv.Close()
		if !waitFor("call 1 failed", func() bool { return returned.Load() == 1 }) {
			return
		}
		gate.Send(struct{}{})
		g.Wait()
		if errs[0] != nil {
			t.Errorf("running call: %v, want its answer", errs[0])
		}
		if !errors.Is(errs[1], types.ErrTimedOut) {
			t.Errorf("waiting call: %v, want ErrTimedOut", errs[1])
		}
	}
	t.Run("RealEnv", func(t *testing.T) {
		env := sim.NewRealEnv()
		defer env.Shutdown()
		body(t, env)
	})
	t.Run("VirtEnv", func(t *testing.T) {
		env := sim.NewVirtEnv()
		env.Run(func() { body(t, env) })
	})
}

type tcpMsg struct{ S string }

func TestTCPRoundTrip(t *testing.T) {
	gob.Register(tcpMsg{})
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, req any) any {
		m := req.(tcpMsg)
		return tcpMsg{S: m.S + "!"}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				resp, err := cli.Call(Meta{}, tcpMsg{S: "hi"})
				if err != nil {
					t.Error(err)
					return
				}
				if resp.(tcpMsg).S != "hi!" {
					t.Errorf("resp = %v", resp)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPServerCloseUnblocksClients(t *testing.T) {
	gob.Register(tcpMsg{})
	srv, err := ListenTCP("127.0.0.1:0", func(_ context.Context, req any) any { return req })
	if err != nil {
		t.Fatal(err)
	}
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close()
	if _, err := cli.Call(Meta{}, tcpMsg{S: "x"}); err == nil {
		// A race may let one call through; a second must fail.
		if _, err := cli.Call(Meta{}, tcpMsg{S: "y"}); err == nil {
			t.Fatal("calls to closed server keep succeeding")
		}
	}
}

// TestCallCtxCarriesSpanContext: the caller's trace identity — whether a
// live local span or a relayed remote context — arrives in the server
// handler's context; untraced calls arrive with the zero context.
func TestCallCtxCarriesSpanContext(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	var mu sync.Mutex
	var seen []obs.SpanContext
	srv := net.ListenCtx("srv", 1, func(ctx context.Context, req any) any {
		mu.Lock()
		seen = append(seen, MetaFrom(ctx).Span)
		mu.Unlock()
		return req
	})
	defer srv.Close()

	tr := obs.NewTracer(4, nil)
	tr.SetSeed(3)
	sp := tr.StartRoot("op", "/p")
	ctx := obs.WithSpan(context.Background(), sp)
	if _, err := net.CallFromCtx(ctx, "cli", "srv", 1); err != nil {
		t.Fatal(err)
	}
	relay := WithMeta(context.Background(), Meta{Span: sp.Context()})
	if _, err := net.CallFromCtx(relay, "cli", "srv", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := net.CallFromCtx(context.Background(), "cli", "srv", 3); err != nil {
		t.Fatal(err)
	}
	sp.End(nil)

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 3 {
		t.Fatalf("server saw %d calls, want 3", len(seen))
	}
	if seen[0] != sp.Context() || seen[1] != sp.Context() {
		t.Fatalf("trace identity lost: %v / %v, want %v", seen[0], seen[1], sp.Context())
	}
	if seen[2].Valid() {
		t.Fatalf("untraced call arrived with identity %v", seen[2])
	}
}

// TestTCPTracePropagation: the envelope carries the caller's Meta across a
// real socket, and an untraced caller arrives as the zero Meta.
func TestTCPTracePropagation(t *testing.T) {
	gob.Register(tcpMsg{})
	var mu sync.Mutex
	var seen []Meta
	srv, err := ListenTCP("127.0.0.1:0", func(ctx context.Context, req any) any {
		mu.Lock()
		seen = append(seen, MetaFrom(ctx))
		mu.Unlock()
		return req
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	want := Meta{Span: obs.SpanContext{Trace: 0xabc, Span: 0xdef}, Tenant: "t1"}
	if _, err := cli.Call(want, tcpMsg{S: "traced"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(Meta{}, tcpMsg{S: "plain"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("server saw %d calls, want 2", len(seen))
	}
	got := seen[0]
	if got.Span != want.Span || got.Tenant != "t1" {
		t.Fatalf("server saw %+v, want %+v", got, want)
	}
	if seen[1] != (Meta{}) {
		t.Fatalf("plain call arrived as %+v, want the zero Meta", seen[1])
	}
}

// TestMetaCarrier: a context carries one Meta; MetaFrom prefers a local span
// over the span the Meta names.
func TestMetaCarrier(t *testing.T) {
	if m := MetaFrom(context.Background()); m != (Meta{}) {
		t.Fatalf("empty ctx: %+v, want the zero Meta", m)
	}
	remote := obs.SpanContext{Trace: 5, Span: 9}
	ctx := WithMeta(context.Background(), Meta{Span: remote, Tenant: "t"})
	if m := MetaFrom(ctx); m.Span != remote || m.Tenant != "t" {
		t.Fatalf("MetaFrom = %+v", m)
	}
	sp := obs.NewTracer(4, nil).StartChild(remote, "serve", "/x")
	if got := MetaFrom(obs.WithSpan(ctx, sp)).Span; got != sp.Context() {
		t.Fatalf("span = %v, want the local span %v", got, sp.Context())
	}
}
