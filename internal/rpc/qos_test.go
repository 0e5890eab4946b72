package rpc

import (
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"arkfs/internal/obs"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// TestInboxBoundSheds: a server with MaxInbox refuses excess calls at the
// door with a typed EAGAIN instead of queueing without bound, and the shed is
// counted.
func TestInboxBoundSheds(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	reg := obs.NewRegistry()
	net.SetObs(reg)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := net.Listen("srv", 1, func(req any) any {
		entered <- struct{}{}
		<-release
		return req
	}, ServerLimits{MaxInbox: 1})
	defer srv.Close()

	done := make(chan error, 2)
	go func() { _, err := net.Call("srv", 1); done <- err }() // occupies the slot
	<-entered
	go func() { _, err := net.Call("srv", 2); done <- err }() // waits for the slot
	// Wait for the second call to actually wait before probing the bound.
	deadline := time.Now().Add(2 * time.Second)
	for srv.waiting.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second call never waited for the slot")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := net.Call("srv", 3)
	if !errors.Is(err, types.ErrAgain) {
		t.Fatalf("over-bound call: err = %v, want EAGAIN", err)
	}
	if after, ok := types.RetryAfter(err); !ok || after != 5*time.Millisecond {
		t.Fatalf("retry-after hint = %v/%v, want the 5ms default", after, ok)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted call %d failed: %v", i, err)
		}
	}
	if got := reg.Counter("qos.shed.rpc.inbox").Value(); got != 1 {
		t.Fatalf("qos.shed.rpc.inbox = %d, want 1", got)
	}
}

// TestQueueWaitShed: a request whose arrival→slot wait exceeds ShedWait is
// shed when it gets the slot — the handler never runs for it — with a typed
// EAGAIN.
func TestQueueWaitShed(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := NewNetwork(env, sim.NetModel{})
	reg := obs.NewRegistry()
	net.SetObs(reg)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	handled := make(chan any, 4)
	srv := net.Listen("srv", 1, func(req any) any {
		handled <- req
		entered <- struct{}{}
		<-release
		return req
	}, ServerLimits{ShedWait: 10 * time.Millisecond})
	defer srv.Close()

	first := make(chan error, 1)
	go func() { _, err := net.Call("srv", 1); first <- err }()
	<-entered
	stale := make(chan error, 1)
	go func() { _, err := net.Call("srv", 2); stale <- err }()
	// Let the waiting request age well past ShedWait, then free the slot.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first call failed: %v", err)
	}
	err := <-stale
	if !errors.Is(err, types.ErrAgain) {
		t.Fatalf("stale call: err = %v, want EAGAIN", err)
	}
	if after, ok := types.RetryAfter(err); !ok || after < 10*time.Millisecond {
		t.Fatalf("stale-wait hint = %v/%v, want ≥ ShedWait", after, ok)
	}
	if len(handled) != 1 {
		t.Fatalf("handler ran %d times, want 1 (shed request must not burn service time)", len(handled))
	}
	if got := reg.Counter("qos.shed.rpc.wait").Value(); got != 1 {
		t.Fatalf("qos.shed.rpc.wait = %d, want 1", got)
	}
}

// TestShedSurvivesTCPBridge: typed pushback — errors.Is(err, ErrAgain) AND
// the retry-after hint — crosses a real socket intact: local server sheds,
// the bridge re-encodes the Shed payload, the remote fabric rehydrates the
// same typed error.
func TestShedSurvivesTCPBridge(t *testing.T) {
	gob.Register(tcpMsg{})
	envA := sim.NewRealEnv()
	defer envA.Shutdown()
	netA := NewNetwork(envA, sim.NetModel{})
	srv := netA.Listen("target", 1, func(req any) any {
		return &Shed{AfterNS: int64(9 * time.Millisecond), Reason: "test-shed"}
	})
	defer srv.Close()
	bridge, err := netA.Bridge("127.0.0.1:0", "target")
	if err != nil {
		t.Fatal(err)
	}
	defer bridge.Close()

	envB := sim.NewRealEnv()
	defer envB.Shutdown()
	netB := NewNetwork(envB, sim.NetModel{})
	_, err = netB.Call(TCPAddr(bridge.Addr()), tcpMsg{S: "hi"})
	if !errors.Is(err, types.ErrAgain) {
		t.Fatalf("bridged shed: err = %v, want EAGAIN", err)
	}
	if after, ok := types.RetryAfter(err); !ok || after != 9*time.Millisecond {
		t.Fatalf("bridged retry-after hint = %v/%v, want 9ms", after, ok)
	}
}
