package rpc

import (
	"encoding/gob"
	"errors"
	"testing"
	"time"

	"arkfs/internal/sim"
	"arkfs/internal/types"
)

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
