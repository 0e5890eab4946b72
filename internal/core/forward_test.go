package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"arkfs/internal/obs"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/types"
)

// BenchmarkForwardedStat is BenchmarkStatNoObs for the other branch of
// forward: one client leads every directory on the path, the other stats a
// file at its end, so every iteration is one walk over the in-process fabric,
// whatever the depth. allocs/op is the number to watch (the rows are in
// cmd/benchgate/table.txt): a request boxed on the way in, a per-op closure
// in the forwarding path, or a message per component shows up here. The
// parallel row has two peers stat at once through one leader, whose service
// of each must take no lock the other holds (DESIGN.md §5.9); its ns/op is
// the one that contention shows in.
func BenchmarkForwardedStat(b *testing.B) {
	for _, bm := range []struct {
		name, dir string
		peers     []string
	}{{"depth1", "/b", []string{"peer"}}, {"depth3", "/b/c/d", []string{"peer"}}, {"parallel", "/b", []string{"peer", "peer2"}}} {
		b.Run(bm.name, func(b *testing.B) {
			tc := newTestCluster(b)
			leader := tc.client(b, "leader")
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
			peers := make([]*Client, len(bm.peers))
			for i, id := range bm.peers {
				peers[i] = tc.client(b, id)
				dir, err := peers[i].Stat(ctx, bm.dir)
				if err != nil {
					b.Fatal(err)
				}
				if peers[i].Leads(dir.Ino) || !leader.Leads(dir.Ino) {
					b.Fatal("peer does not forward to leader; the benchmark would measure nothing")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			if len(peers) == 1 {
				for i := 0; i < b.N; i++ {
					if _, err := peers[0].Stat(ctx, bm.dir+"/f"); err != nil {
						b.Fatal(err)
					}
				}
				return
			}
			var next atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				peer := peers[int(next.Add(1)-1)%len(peers)]
				for pb.Next() {
					if _, err := peer.Stat(ctx, bm.dir+"/f"); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// TestForwardedOpenHonorsPushback: a leader whose admission gate refuses each
// of a non-leader's Open(O_CREATE) messages once, with a hint, must cost the
// call one retry per refusal — not fail it. A refused walk makes nothing, and
// the retry makes the file once.
func TestForwardedOpenHonorsPushback(t *testing.T) {
	tc := newTestCluster(t)
	// One token per caller, one more every 50ms: long against the run time
	// of an open's messages, so each is refused once and admitted at the
	// slot its hint names, and short enough to wait out.
	lim := qos.NewLimiter(qos.Limits{Rate: 20, Burst: 1})
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
	// The stat's last message takes the peer's token, so the open finds its
	// bucket empty.
	if _, err := peer.Stat(ctx, "/d"); err != nil {
		t.Fatal(err)
	}
	served := r1.Snapshot().Counters["core.meta.local"]
	refused := r1.Snapshot().Counters["qos.shed.core.admission"]
	honored := peer.StatCounters().PushbackHonored.Load()

	f, err := peer.Open(ctx, "/d/pushed", types.OWronly|types.OCreate, 0644)
	if err != nil {
		t.Fatalf("open under admission refusals: %v", err)
	}
	_ = f.Close()
	if got := r1.Snapshot().Counters["core.meta.local"] - served; got != 1 {
		t.Fatalf("the leader served %d creates for the refused walk and its retry, want the retry's alone", got)
	}
	if node, err := leader.Stat(ctx, "/d/pushed"); err != nil || node.Ino != f.Ino() {
		t.Fatalf("the leader has %v, %v; want the inode the open made", node, err)
	}
	refused = r1.Snapshot().Counters["qos.shed.core.admission"] - refused
	if refused < 1 {
		t.Fatal("the leader refused none of the open's messages")
	}
	sp := mustOp(t, peer.Tracer().Filter(func(s obs.Span) bool { return s.Path == "/d/pushed" }), "open")
	if int64(sp.Retries) != refused || sp.Err != "" {
		t.Fatalf("open span: retries=%d err=%q, want one retry per refusal (%d) and success", sp.Retries, sp.Err, refused)
	}
	if got := peer.StatCounters().PushbackHonored.Load() - honored; got != refused {
		t.Fatalf("peer honored %d hints, want %d", got, refused)
	}
}

// TestAdmissionRefusesUntracedCaller: a rate-limited leader charges a
// forwarded op to its origin, the client it started at, whether or not that
// client traces. A peer without a registry is refused like any other, and a
// 2PC prepare the coordinator sends on the peer's behalf is charged to the
// peer: with the peer's token at the participant spent, the prepare is
// refused, where the coordinator's own bucket there is full.
func TestAdmissionRefusesUntracedCaller(t *testing.T) {
	t.Run("forwarded", func(t *testing.T) {
		tc := newTestCluster(t)
		reg := obs.NewRegistry()
		leader := tc.client(t, "leader", withObs(reg), func(o *Options) {
			o.QoS = qos.NewLimiter(qos.Limits{Rate: 50, Burst: 1})
		})
		peer := tc.client(t, "peer") // untraced
		ctx := context.Background()
		if err := leader.Mkdir(ctx, "/d", 0777); err != nil {
			t.Fatal(err)
		}
		if _, err := leader.Readdir(ctx, "/d"); err != nil { // leader leads /d
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			f, err := peer.Create(ctx, fmt.Sprintf("/d/f%d", i), 0644)
			if err != nil {
				t.Fatalf("create under admission: %v", err)
			}
			_ = f.Close()
		}
		refused := reg.Snapshot().Counters["qos.shed.core.admission"]
		if refused == 0 {
			t.Fatal("the leader admitted every call of an untraced peer past its rate")
		}
		if got := peer.StatCounters().PushbackHonored.Load(); got != refused {
			t.Fatalf("peer honored %d hints, want one per refusal (%d)", got, refused)
		}
	})
	t.Run("2pc", func(t *testing.T) {
		tc := newTestCluster(t)
		reg := obs.NewRegistry()
		src := tc.client(t, "src")
		dst := tc.client(t, "dst", withObs(reg), func(o *Options) {
			o.QoS = qos.NewLimiter(qos.Limits{Rate: 20, Burst: 1})
		})
		peer := tc.client(t, "peer") // untraced
		ctx := context.Background()
		for _, p := range []string{"/a", "/b"} {
			if err := src.Mkdir(ctx, p, 0777); err != nil {
				t.Fatal(err)
			}
		}
		f, err := src.Create(ctx, "/a/f", 0644) // src leads /a
		if err != nil {
			t.Fatal(err)
		}
		_ = f.Close()
		if _, err := dst.Readdir(ctx, "/b"); err != nil { // dst leads /b
			t.Fatal(err)
		}
		// The peer's walk into /b spends its token at dst; the prepare src
		// sends next, within the 50ms the token takes to come back, finds the
		// bucket empty only if it is charged to the peer. The peer retries
		// the refused rename until a token has come back.
		if err := peer.Rename(ctx, "/a/f", "/b/f"); err != nil {
			t.Fatalf("rename under admission: %v", err)
		}
		refused := dst.Tracer().Filter(func(s obs.Span) bool {
			return s.Op == "serve.rename.prepare" && strings.HasPrefix(s.Err, "EAGAIN")
		})
		if len(refused) == 0 {
			t.Fatal("the participant admitted a prepare charged to the coordinator, not to the origin")
		}
		if _, err := src.Stat(ctx, "/b/f"); err != nil {
			t.Fatalf("renamed file: %v", err)
		}
	})
}

// TestRenameParticipantDiscoveryError: when the coordinator cannot find out
// who leads the destination directory, the prepare leg fails with that
// discovery error and the 2PC aborts. It must not call its own server and
// report the ESTALE that answers.
func TestRenameParticipantDiscoveryError(t *testing.T) {
	tc := newTestCluster(t)
	// Two acquire attempts bound the discovery, so it times out while
	// /src's lease is still live.
	c1 := tc.client(t, "c1", func(o *Options) { o.AcquireRetries = 2 })
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
	err = c1.coordinateRename(ctx, RenameReq{
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
// the wire: a request is described (span, directory field, admission
// exemption, whether core.meta.remote counts it) and dispatched; a
// response carries its errno through gob. A new message that skips describe,
// the errno methods, dispatch or this table fails here.
func TestMessageTable(t *testing.T) {
	type row struct {
		span, dirField    string
		exempt, namespace bool
	}
	requests := map[string]row{
		"WalkReq":          {"serve.walk", "Dir", false, true},
		"UnlinkReq":        {"serve.unlink", "Dir", false, true},
		"SetAttrReq":       {"serve.setattr", "Dir", false, true},
		"ReaddirReq":       {"serve.readdir", "Dir", false, true},
		"RenameReq":        {"serve.rename", "SrcDir", false, true},
		"PrepareRenameReq": {"serve.rename.prepare", "DstDir", false, false},
		"DecideRenameReq":  {"serve.rename.decide", "DstDir", true, false},
		"WriteLeaseReq":    {"serve.writelease", "Dir", false, false},
		"CloseFileReq":     {"serve.close", "Dir", true, false},
		"FlushCacheReq":    {"serve.flushcache", "", true, false},
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
		if got != (msgInfo{span: want.span, dir: wantDir, exempt: want.exempt, namespace: want.namespace}) {
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
	if resp, ok := c.serve(ctx, WalkReq{Dir: types.Ino{0xee}}).(ErrResp); !ok || resp.Err != "ESTALE" {
		t.Errorf("request for an unled directory answered %+v, want ErrResp ESTALE", resp)
	}
}
