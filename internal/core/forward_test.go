package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"testing"

	"arkfs/internal/obs"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// BenchmarkForwardedStat is BenchmarkStatNoObs for the other branch of
// forward: one client leads every directory on the path, the other stats a
// file at its end, so every iteration is one walk over the in-process fabric,
// whatever the depth. allocs/op is the number to watch (both rows are in
// cmd/benchgate/table.txt): a request boxed on the way in, a per-op closure
// in the forwarding path, or a message per component shows up here.
func BenchmarkForwardedStat(b *testing.B) {
	for _, bm := range []struct{ name, dir string }{{"depth1", "/b"}, {"depth3", "/b/c/d"}} {
		b.Run(bm.name, func(b *testing.B) {
			tc := newTestCluster(b)
			leader := tc.client(b, "leader")
			peer := tc.client(b, "peer")
			ctx := context.Background()
			for end := 2; end <= len(bm.dir); end += 2 {
				if err := leader.Mkdir(ctx, bm.dir[:end], 0777); err != nil {
					b.Fatal(err)
				}
			}
			f, err := leader.Create(ctx, bm.dir+"/f", 0644)
			if err != nil {
				b.Fatal(err)
			}
			_ = f.Close()
			dir, err := peer.Stat(ctx, bm.dir)
			if err != nil {
				b.Fatal(err)
			}
			if peer.Leads(dir.Ino) || !leader.Leads(dir.Ino) {
				b.Fatal("peer does not forward to leader; the benchmark would measure nothing")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := peer.Stat(ctx, bm.dir+"/f"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// admittedCalls counts the wire calls so far of the message types a leader's
// admission gate charges on the open path.
func admittedCalls(reg *obs.Registry) int64 {
	calls := leaderCalls(reg)
	return calls["Stat"] + calls["Walk"] + calls["Open"]
}

// TestForwardedOpenHonorsPushback: a leader whose admission gate refuses the
// last of a non-leader's Open(O_CREATE) messages once, with a hint, must cost
// the call one retry — not fail it. The refused walk makes nothing, and the
// retry makes the file once.
func TestForwardedOpenHonorsPushback(t *testing.T) {
	tc := newTestCluster(t)
	netReg := obs.NewRegistry()
	tc.net.SetObs(netReg)
	lim := qos.NewLimiter(qos.Limits{}) // admits everything until a tenant is pinned
	r1, r2 := obs.NewRegistry(), obs.NewRegistry()
	leader := tc.client(t, "leader", withObs(r1), func(o *Options) { o.QoS = lim })
	peer := tc.client(t, "peer", withObs(r2))
	ctx := context.Background()
	if err := leader.Mkdir(ctx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Readdir(ctx, "/d"); err != nil { // leader leads /d
		t.Fatal(err)
	}

	// A warm-up open tells how many admitted messages one Open(O_CREATE)
	// sends; the walk that carries the create is the last of them.
	before := admittedCalls(netReg)
	f, err := peer.Open(ctx, "/d/warm", types.OWronly|types.OCreate, 0644)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.Close()
	perOpen := admittedCalls(netReg) - before
	if perOpen < 1 {
		t.Fatalf("warm-up open sent %d admitted messages, want the walk at least", perOpen)
	}
	// Tokens for all of the next open's messages but the last. At 20/s the
	// refusal's hint is ~50ms: long against the run time of the messages
	// before it, so no token accrues early, and short enough to wait out. A
	// bucket holds at least one token, so it is made one deeper and a stat
	// spends the extra one.
	lim.SetTenant(peer.Tenant(), qos.Limits{Rate: 20, Burst: float64(perOpen)})
	if _, err := peer.Stat(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	served := r1.Snapshot().Counters["core.meta.local"]

	f, err = peer.Open(ctx, "/d/pushed", types.OWronly|types.OCreate, 0644)
	if err != nil {
		t.Fatalf("open under one admission refusal: %v", err)
	}
	_ = f.Close()
	if got := r1.Snapshot().Counters["core.meta.local"] - served; got != 1 {
		t.Fatalf("the leader served %d creates for the refused walk and its retry, want the retry's alone", got)
	}
	if node, err := leader.Stat(ctx, "/d/pushed"); err != nil || node.Ino != f.Ino() {
		t.Fatalf("the leader has %v, %v; want the inode the open made", node, err)
	}
	if got := r1.Snapshot().Counters["qos.shed.core.admission"]; got != 1 {
		t.Fatalf("leader refused %d times, want exactly 1", got)
	}
	sp := mustOp(t, peer.Tracer().Filter(func(s obs.Span) bool { return s.Path == "/d/pushed" }), "open")
	if sp.Retries != 1 || sp.Err != "" {
		t.Fatalf("open span: retries=%d err=%q, want one retry and success", sp.Retries, sp.Err)
	}
	if got := r2.Snapshot().Counters["qos.pushback.honored"]; got != 1 {
		t.Fatalf("peer honored %d hints, want 1", got)
	}
}

// TestRenameParticipantDiscoveryError: when the coordinator cannot find out
// who leads the destination directory, the prepare leg fails with that
// discovery error and the 2PC aborts. It must not call its own server and
// report the ESTALE that answers.
func TestRenameParticipantDiscoveryError(t *testing.T) {
	tc := newTestCluster(t)
	c1 := tc.client(t, "c1")
	c2 := tc.client(t, "c2")
	ctx := context.Background()
	for _, step := range []struct {
		c    *Client
		path string
	}{{c1, "/src"}, {c2, "/dst"}} {
		if err := step.c.Mkdir(ctx, step.path, 0777); err != nil {
			t.Fatal(err)
		}
		f, err := step.c.Create(ctx, step.path+"/f", 0644) // c1 leads /src, c2 leads /dst
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
	}
	src, err := c1.Stat(ctx, "/src")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := c1.Stat(ctx, "/dst")
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Leads(src.Ino) || !c2.Leads(dst.Ino) {
		t.Fatal("setup: c1 must lead /src and c2 /dst")
	}

	// No cached route to /dst's leader, no hint, and no lease manager.
	c1.invalidateLeader(dst.Ino)
	plan := rpc.NewFaultPlan(tc.env, 1)
	cut := plan.Partition([]rpc.Addr{c1.Addr()}, []rpc.Addr{"leasemgr"})
	tc.net.SetFaultPlan(plan)
	defer tc.net.SetFaultPlan(nil)
	err = c1.coordinateRename(rpc.WithMeta(ctx, rpc.Meta{Budget: qos.NewBudget(2)}), RenameReq{
		SrcDir: src.Ino, SrcName: "f", DstDir: dst.Ino, DstName: "moved", Cred: c1.opts.Cred,
	})
	cut.Heal()
	if !errors.Is(err, types.ErrTimedOut) || errors.Is(err, types.ErrStale) {
		t.Fatalf("rename with undiscoverable participant: %v, want the discovery timeout", err)
	}
	if _, err := c1.Stat(ctx, "/src/f"); err != nil {
		t.Fatalf("aborted rename lost the source: %v", err)
	}
	if _, err := c1.Stat(ctx, "/dst/moved"); !errors.Is(err, types.ErrNotExist) {
		t.Fatalf("aborted rename left a destination entry: %v", err)
	}
}

// TestMessageTable holds the message table to every type messages.go puts on
// the wire: a request is described (span, directory field, brownout cost,
// admission exemption, whether core.meta.remote counts it) and dispatched; a
// response carries its errno through gob. A new message that skips describe,
// the errno methods, dispatch or this table fails here.
func TestMessageTable(t *testing.T) {
	type row struct {
		span, dirField    string
		cost              qos.OpCost
		exempt, namespace bool
	}
	requests := map[string]row{
		"WalkReq":          {"serve.walk", "Dir", qos.CostCheap, false, true},
		"UnlinkReq":        {"serve.unlink", "Dir", qos.CostNormal, false, true},
		"StatReq":          {"serve.stat", "Dir", qos.CostCheap, false, false},
		"SetAttrReq":       {"serve.setattr", "Dir", qos.CostNormal, false, true},
		"ReaddirReq":       {"serve.readdir", "Dir", qos.CostExpensive, false, true},
		"RenameReq":        {"serve.rename", "SrcDir", qos.CostExpensive, false, true},
		"PrepareRenameReq": {"serve.rename.prepare", "DstDir", qos.CostExpensive, false, false},
		"DecideRenameReq":  {"serve.rename.decide", "DstDir", qos.CostNormal, true, false},
		"OpenReq":          {"serve.open", "Dir", qos.CostNormal, false, false},
		"WriteLeaseReq":    {"serve.writelease", "Dir", qos.CostNormal, false, false},
		"CloseFileReq":     {"serve.close", "Dir", qos.CostNormal, true, false},
		"FlushCacheReq":    {"serve.flushcache", "", qos.CostNormal, true, false},
	}
	tc := newTestCluster(t)
	c := tc.client(t, "a")
	ctx := context.Background()
	if err := c.Mkdir(ctx, "/t", 0777); err != nil { // c leads the root
		t.Fatal(err)
	}

	inoType := reflect.TypeOf(types.Ino{})
	for _, m := range wireMessages {
		typ := reflect.TypeOf(m)
		v := reflect.New(typ).Elem()
		if _, isResp := m.(response); isResp {
			v.FieldByName("Err").SetString("EAGAIN@42")
			var buf bytes.Buffer
			in := v.Interface()
			if err := gob.NewEncoder(&buf).Encode(&in); err != nil {
				t.Fatalf("%s: gob encode: %v", typ.Name(), err)
			}
			var out any
			if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
				t.Fatalf("%s: gob decode: %v", typ.Name(), err)
			}
			_, err := answer[response](out)
			if d, ok := types.RetryAfter(err); !ok || d != 42 || !errors.Is(err, types.ErrAgain) {
				t.Errorf("%s: errno came back as %v, want EAGAIN with a 42ns hint", typ.Name(), err)
			}
			continue
		}
		want, listed := requests[typ.Name()]
		got, described := describe(m)
		if !listed || !described {
			t.Errorf("%s: in this test's table: %v, in describe: %v; a forwarded message needs both", typ.Name(), listed, described)
			continue
		}
		// Every Ino field gets its own value, the directory field the root's,
		// so describe picking the wrong field shows.
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type == inoType {
				v.Field(i).Set(reflect.ValueOf(types.Ino{0xee, byte(i)}))
			}
		}
		var wantDir types.Ino
		if want.dirField != "" {
			wantDir = types.RootIno
			v.FieldByName(want.dirField).Set(reflect.ValueOf(wantDir))
		}
		got, _ = describe(v.Interface())
		if got != (msgInfo{span: want.span, dir: wantDir, cost: want.cost, exempt: want.exempt, namespace: want.namespace}) {
			t.Errorf("%s: described as %+v, want %+v on %s", typ.Name(), got, want, want.dirField)
		}
		// Served on the directory's leader, a known request gets its own
		// response type, whatever that says about the empty arguments.
		if resp, refused := c.serve(ctx, v.Interface()).(ErrResp); refused {
			t.Errorf("%s: leader answered ErrResp %q; dispatch does not know it", typ.Name(), resp.Err)
		}
		delete(requests, typ.Name())
	}
	for name := range requests {
		t.Errorf("%s: listed here but not in wireMessages", name)
	}

	type notAMessage struct{}
	if resp, ok := c.serve(ctx, notAMessage{}).(ErrResp); !ok || resp.Err != "EINVAL" {
		t.Errorf("unregistered type answered %+v, want ErrResp EINVAL", resp)
	}
	// A request for a directory this client does not lead is ESTALE, before
	// any handler runs.
	if resp, ok := c.serve(ctx, StatReq{Dir: types.Ino{0xee}}).(ErrResp); !ok || resp.Err != "ESTALE" {
		t.Errorf("request for an unled directory answered %+v, want ErrResp ESTALE", resp)
	}
}
