package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arkfs/internal/journal"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

// slowInodes delays every inode GET by delay while armed: a directory load
// through it takes (children + 1) × delay when the GETs are not overlapped.
type slowInodes struct {
	objstore.Store
	env   sim.Env
	delay time.Duration
	armed atomic.Bool
	gets  atomic.Int64 // inode GETs while armed
}

func (s *slowInodes) Get(key string) ([]byte, error) {
	if s.armed.Load() && strings.HasPrefix(key, prt.PrefixInode) {
		s.gets.Add(1)
		s.env.Sleep(s.delay)
	}
	return s.Store.Get(key)
}

// lapsedTakeover is the common part of the two tests below: /d with four
// files, released cleanly by a set-up client that goes on leading the root;
// client a, whose store makes the load of /d take five lease periods; client
// b with a store of normal speed. a runs in permission-caching mode and has
// resolved /d/from-a (not there) while the set-up client still led /d, so
// a's mkdir needs no leader to resolve its path: the mkdir itself is the
// operation that takes /d over.
type lapsedTakeover struct {
	slow *slowInodes
	a, b *Client
	dir  types.Ino
}

const lapsedLP = 200 * time.Millisecond

var bgCtx = context.Background()

func newLapsedTakeover(t *testing.T, env *sim.VirtEnv) *lapsedTakeover {
	t.Helper()
	mem := objstore.NewMemStore()
	if err := Format(prt.New(mem, 4096)); err != nil {
		t.Fatal(err)
	}
	net := rpc.NewNetwork(env, sim.NetModel{})
	lease.NewManager(net, lease.Options{Period: lapsedLP})
	mount := func(id string, st objstore.Store, permCache bool) *Client {
		return New(net, prt.New(st, 4096), Options{
			ID: id, Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lapsedLP, PermCache: permCache,
			Journal: journal.Config{CommitInterval: lapsedLP / 4, CommitWorkers: 2, CheckpointWorkers: 2},
		})
	}
	setup := mount("setup", mem, false)
	if err := setup.Mkdir(bgCtx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := createFile(setup, fmt.Sprintf("/d/old%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	lt := &lapsedTakeover{slow: &slowInodes{Store: mem, env: env, delay: lapsedLP}}
	lt.a, lt.b = mount("a", lt.slow, true), mount("b", mem, false)
	if _, err := lt.a.Stat(bgCtx, "/d/from-a"); !isNotExist(err) {
		t.Fatalf("stat of a file not yet created: %v", err)
	}
	node, err := lt.a.Stat(bgCtx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	lt.dir = node.Ino
	if err := setup.ReleaseDir(lt.dir); err != nil {
		t.Fatal(err)
	}
	lt.slow.armed.Store(true)
	return lt
}

func createFile(c *Client, path string) error {
	f, err := c.Create(bgCtx, path, 0644)
	if err != nil {
		return err
	}
	return f.Close()
}

// installed reports whether c has dir in its led set, and whether that
// entry's lease has run out.
func installed(c *Client, dir types.Ino) (led, lapsed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ld, ok := c.led[dir]
	return ok, ok && c.env.Now() >= ld.expiry
}

// A takeover that ends after its lease has lapsed must not install
// leadership. Client a's mkdir takes /d over, and the load takes five lease
// periods; one and a half periods in, client b asks for /d, waits out the
// grace and is granted the directory with recovery. When a's load ends, a
// holds a table for a directory b leads: it has to ask the manager again,
// follow the redirect and have b serve the mkdir. Served from the lapsed
// lease instead, the mkdir is acknowledged by a second leader, and the
// directory's real leader never hears of it.
func TestLoadOutlivingItsLeaseDoesNotInstallLeadership(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		lt := newLapsedTakeover(t, env)
		a, b, dir := lt.a, lt.b, lt.dir

		var done atomic.Bool
		var twoLeaders atomic.Int64
		watch := sim.NewGroup(env)
		watch.Go(func() {
			for !done.Load() {
				aLed, _ := installed(a, dir)
				bLed, _ := installed(b, dir)
				if aLed && bLed {
					twoLeaders.Add(1)
				}
				env.Sleep(lapsedLP / 16)
			}
		})

		start := env.Now()
		var aErr, bErr error
		var aLapsed bool
		var bTook time.Duration
		ops := sim.NewGroup(env)
		ops.Go(func() {
			aErr = a.Mkdir(bgCtx, "/d/from-a", 0755)
			_, aLapsed = installed(a, dir)
		})
		ops.Go(func() {
			env.Sleep(lapsedLP + lapsedLP/2)
			bErr = createFile(b, "/d/from-b")
			bTook = env.Now() - start
		})
		ops.Wait()
		done.Store(true)
		watch.Wait()

		if took := env.Now() - start; took < 5*lapsedLP {
			t.Fatalf("a's takeover ended at +%v: the load did not outlive its lease", took)
		}
		if bErr != nil || bTook > 3*lapsedLP {
			t.Errorf("b's create: %v at +%v; want the directory right after the grace (+%v)", bErr, bTook, 2*lapsedLP)
		}
		if aLapsed {
			t.Errorf("a acknowledged its mkdir from a lease that lapsed at +%v", lapsedLP)
		}
		if n := twoLeaders.Load(); n > 0 {
			t.Errorf("both clients had /d installed at %d sampled instants", n)
		}
		if !b.Leads(dir) || a.Leads(dir) {
			t.Errorf("at the end a leads: %v, b leads: %v; want b alone", a.Leads(dir), b.Leads(dir))
		}
		// Whatever either client acknowledged is there, through the leader and
		// through the other client, after everything is flushed.
		for _, c := range []*Client{a, b} {
			if err := c.FlushAll(bgCtx); err != nil {
				t.Error(err)
			}
		}
		acked := []string{"/d/old0"}
		if aErr == nil {
			acked = append(acked, "/d/from-a")
		} else {
			t.Logf("a's mkdir was refused: %v", aErr)
		}
		if bErr == nil {
			acked = append(acked, "/d/from-b")
		}
		for _, c := range []*Client{b, a} {
			for _, name := range acked {
				if _, err := c.Stat(bgCtx, name); err != nil {
					t.Errorf("acknowledged %s is gone: %v", name, err)
				}
			}
		}
		_ = a.Close()
		_ = b.Close()
	})
}

// The same slow load with nobody else asking: the manager re-grants the
// lapsed lease in place (same chain), so the table a just loaded is current
// and goes into service with the new expiry. Nothing is loaded twice.
func TestLoadOutlivingItsLeaseIsRegrantedInPlace(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		lt := newLapsedTakeover(t, env)
		a, dir := lt.a, lt.dir
		start := env.Now()
		if err := a.Mkdir(bgCtx, "/d/from-a", 0755); err != nil {
			t.Fatal(err)
		}
		if took := env.Now() - start; took < 5*lapsedLP {
			t.Fatalf("takeover ended at +%v: the load did not outlive its lease", took)
		}
		if led, lapsed := installed(a, dir); !led || lapsed {
			t.Fatalf("after the in-place re-grant: installed %v, lapsed %v", led, lapsed)
		}
		if n := lt.slow.gets.Load(); n != 5 {
			t.Fatalf("%d inode GETs for one directory inode and four children: the table was loaded more than once", n)
		}
		lt.slow.armed.Store(false)
		if _, err := lt.b.Stat(bgCtx, "/d/from-a"); err != nil {
			t.Fatalf("b cannot see a's mkdir: %v", err)
		}
		_ = a.Close()
		_ = lt.b.Close()
	})
}

// TestTakeoverLatency pins what a leadership change costs in virtual time on
// the simulated stores: a fresh client's first stat into a 500-entry
// directory, released cleanly or left behind by a crash. The bounds hold with
// the default fan-out and are all exceeded with CheckpointFanout 1, which is
// one GET after another; both ways the store sees the same requests, so the
// time is not bought with extra ones.
func TestTakeoverLatency(t *testing.T) {
	const files = 500
	const lp = 5 * time.Second
	type reading struct {
		took                time.Duration
		gets, puts, deletes int64
	}
	takeover := func(prof objstore.Profile, crash bool, fanout int) (r reading) {
		env := sim.NewVirtEnv()
		env.Run(func() {
			cluster := objstore.NewCluster(env, prof)
			defer cluster.Close()
			if err := Format(prt.New(cluster, 2<<20)); err != nil {
				t.Fatal(err)
			}
			net := rpc.NewNetwork(env, sim.NetModel{Latency: 30 * time.Microsecond})
			mgr := lease.NewManager(net, lease.Options{Period: lp})
			defer mgr.Close()
			mount := func(id string, fanout int) *Client {
				return New(net, prt.New(cluster, 2<<20), Options{
					ID: id, Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
					Journal: journal.Config{CheckpointFanout: fanout},
				})
			}
			a := mount("a", 0)
			if err := a.Mkdir(bgCtx, "/t", 0777); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < files; i++ {
				if err := createFile(a, fmt.Sprintf("/t/f%04d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if crash {
				if err := a.FlushAll(bgCtx); err != nil {
					t.Fatal(err)
				}
				a.Crash()
				env.Sleep(2*lp + lp/2) // the lease and its grace run out
			} else if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			b := mount("b", fanout)
			if _, err := b.Stat(bgCtx, "/t"); err != nil { // b leads the root
				t.Fatal(err)
			}
			st := cluster.Stat()
			g0, p0, d0 := st.Gets.Load(), st.Puts.Load(), st.Deletes.Load()
			t0 := env.Now()
			if _, err := b.Stat(bgCtx, "/t/f0250"); err != nil {
				t.Fatal(err)
			}
			r = reading{env.Now() - t0, st.Gets.Load() - g0, st.Puts.Load() - p0, st.Deletes.Load() - d0}
			_ = b.Close()
		})
		return r
	}
	for _, c := range []struct {
		name  string
		prof  objstore.Profile
		crash bool
		bound time.Duration
	}{
		{"rados/clean", objstore.RADOSProfile(), false, 25 * time.Millisecond},
		{"rados/crashed", objstore.RADOSProfile(), true, 30 * time.Millisecond},
		{"s3/clean", objstore.S3Profile(), false, 600 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			fanned, serial := takeover(c.prof, c.crash, 0), takeover(c.prof, c.crash, 1)
			t.Logf("first stat: %v fanned out, %v one GET after another; %d GETs", fanned.took, serial.took, fanned.gets)
			if fanned.took > c.bound {
				t.Errorf("first stat took %v, bound %v", fanned.took, c.bound)
			}
			if serial.took <= c.bound {
				t.Errorf("with CheckpointFanout 1 the first stat took %v: the bound %v does not tell the two apart", serial.took, c.bound)
			}
			if fanned.gets < files || fanned.gets != serial.gets || fanned.puts != serial.puts || fanned.deletes != serial.deletes {
				t.Errorf("store requests differ: fanned out %+v, serial %+v", fanned, serial)
			}
		})
	}
}
