package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
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

// slowInodes delays, while armed, the inode GETs that slow picks by delay:
// the GET of the directory's own inode, which comes before a takeover
// installs its table, or those of its children, which come after. Every
// other inode GET takes a millisecond, as a store that is not in memory
// does.
type slowInodes struct {
	objstore.Store
	env   sim.Env
	delay time.Duration
	slow  func(key string) bool
	armed atomic.Bool
	gets  atomic.Int64 // inode GETs while armed
}

func (s *slowInodes) Get(key string) ([]byte, error) {
	if s.armed.Load() && strings.HasPrefix(key, prt.PrefixInode) {
		s.gets.Add(1)
		if s.slow(key) {
			s.env.Sleep(s.delay)
		} else {
			s.env.Sleep(time.Millisecond)
		}
	}
	return s.Store.Get(key)
}

// lapsedTakeover is the common part of the three tests below: /d with four
// files, released cleanly by a set-up client that goes on leading the root;
// client a, whose store makes its load of /d take five lease periods; client
// b with a store of normal speed. a runs in permission-caching mode and has
// resolved /d/from-a (not there) while the set-up client still led /d, so
// a's mkdir needs no leader to resolve its path: the mkdir itself is the
// operation that takes /d over. With children false the slow GET is that
// of /d's own inode, before a installs the table; with children true it is
// each child's, after.
type lapsedTakeover struct {
	slow *slowInodes
	a, b *Client
	dir  types.Ino
}

const lapsedLP = 200 * time.Millisecond

var bgCtx = context.Background()

func newLapsedTakeover(t *testing.T, env *sim.VirtEnv, children bool) *lapsedTakeover {
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
	lt := &lapsedTakeover{slow: &slowInodes{Store: mem, env: env, delay: 5 * lapsedLP}}
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
	dirKey := prt.InodeKey(lt.dir)
	lt.slow.slow = func(key string) bool { return (key == dirKey) != children }
	if children {
		lt.slow.delay = 5 * lapsedLP / 4 // four children, one after another (below FanOut's floor)
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
	ld := c.ledEntry(dir)
	return ld != nil, ld != nil && !ld.lease.Load().Live(c.env.Now())
}

// A takeover that ends after its lease has lapsed must not install
// leadership. Client a's mkdir takes /d over, and the GET of /d's inode
// takes five lease periods; one and a half periods in, client b asks for /d, waits out the
// grace and is granted the directory with recovery. When a's load ends, a
// holds a table for a directory b leads: it has to ask the manager again,
// follow the redirect and have b serve the mkdir. Served from the lapsed
// lease instead, the mkdir is acknowledged by a second leader, and the
// directory's real leader never hears of it.
func TestLoadOutlivingItsLeaseDoesNotInstallLeadership(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		lt := newLapsedTakeover(t, env, false)
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
		lt := newLapsedTakeover(t, env, false)
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
		if !a.AwaitLoad(dir) {
			t.Fatal("a does not lead /d")
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

// A load that outlives its lease after install: a serves /d from its inode
// and dentry block while the four children load behind, one after another,
// for five lease periods. The keeper extends the lease meanwhile, as for any
// led directory, so a never stops serving; b, asking for /d one and a half
// periods in, is redirected to a and served at once.
func TestLoadOutlivingItsLeaseAfterInstallKeepsServing(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		lt := newLapsedTakeover(t, env, true)
		a, b, dir := lt.a, lt.b, lt.dir
		start := env.Now()
		if err := a.Mkdir(bgCtx, "/d/from-a", 0755); err != nil {
			t.Fatal(err)
		}
		if took := env.Now() - start; took > lapsedLP/4 {
			t.Fatalf("a's mkdir took %v: it waited for the children", took)
		}
		var done atomic.Bool
		var aLapsed, bLed atomic.Int64
		watch := sim.NewGroup(env)
		watch.Go(func() {
			for !done.Load() {
				if led, lapsed := installed(a, dir); !led || lapsed {
					aLapsed.Add(1)
				}
				if led, _ := installed(b, dir); led {
					bLed.Add(1)
				}
				env.Sleep(lapsedLP / 16)
			}
		})
		env.Sleep(lapsedLP + lapsedLP/2)
		t0 := env.Now()
		if err := createFile(b, "/d/from-b"); err != nil {
			t.Fatal(err)
		}
		bTook := env.Now() - t0
		if !a.AwaitLoad(dir) {
			t.Fatal("a stopped leading /d")
		}
		loaded := env.Now() - start
		done.Store(true)
		watch.Wait()

		if loaded < 5*lapsedLP {
			t.Fatalf("the children were in memory at +%v: the load did not outlive its lease", loaded)
		}
		if bTook > lapsedLP/4 {
			t.Errorf("b's create took %v: it waited for the load", bTook)
		}
		if n := aLapsed.Load(); n > 0 {
			t.Errorf("a's lease of /d was not serving at %d sampled instants: the keeper did not extend it", n)
		}
		if n := bLed.Load(); n > 0 {
			t.Errorf("b had /d installed at %d sampled instants", n)
		}
		b.mu.Lock()
		via := b.remote[dir]
		b.mu.Unlock()
		if via != a.Addr() {
			t.Errorf("b reaches /d via %q, want a at %q", via, a.Addr())
		}
		if n := lt.slow.gets.Load(); n != 5 {
			t.Errorf("%d inode GETs for one directory inode and four children", n)
		}
		lt.slow.armed.Store(false)
		for _, c := range []*Client{a, b} {
			for _, name := range []string{"/d/old0", "/d/old3", "/d/from-a", "/d/from-b"} {
				if _, err := c.Stat(bgCtx, name); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
		_ = a.Close()
		_ = b.Close()
	})
}

// TestTakeoverLatency pins what a leadership change costs in virtual time on
// the simulated stores, a fresh client's first stat into a 500-entry
// directory released cleanly or left behind by a crash, as two times:
//   - first: until the stat returns. The leader serves once it holds the
//     directory inode and the dentry block and has fetched the one child, so
//     this does not depend on the fan-out (measured: 0.86 ms on RADOS, 1.18
//     ms after a crash, 27.1 ms on S3; the bounds leave about 1.7×).
//   - loaded: until the table holds every child. Its bounds are those the
//     first stat had when it waited for the whole table: met at the default
//     fan-out, all exceeded with CheckpointFanout 1, one GET after another.
//
// Once the load is complete, the two runs have made the same store requests:
// the time is not bought with extra ones.
func TestTakeoverLatency(t *testing.T) {
	const files = 500
	const lp = 5 * time.Second
	type reading struct {
		first, loaded       time.Duration
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
			dir, err := b.Stat(bgCtx, "/t") // b leads the root
			if err != nil {
				t.Fatal(err)
			}
			st := cluster.Stat()
			g0, p0, d0 := st.Gets.Load(), st.Puts.Load(), st.Deletes.Load()
			t0 := env.Now()
			if _, err := b.Stat(bgCtx, "/t/f0250"); err != nil {
				t.Fatal(err)
			}
			r.first = env.Now() - t0
			if !b.AwaitLoad(dir.Ino) {
				t.Fatal("b does not lead /t")
			}
			r.loaded = env.Now() - t0
			r.gets, r.puts, r.deletes = st.Gets.Load()-g0, st.Puts.Load()-p0, st.Deletes.Load()-d0
			_ = b.Close()
		})
		return r
	}
	for _, c := range []struct {
		name          string
		prof          objstore.Profile
		crash         bool
		first, loaded time.Duration
	}{
		{"rados/clean", objstore.RADOSProfile(), false, 1500 * time.Microsecond, 25 * time.Millisecond},
		{"rados/crashed", objstore.RADOSProfile(), true, 2 * time.Millisecond, 30 * time.Millisecond},
		{"s3/clean", objstore.S3Profile(), false, 45 * time.Millisecond, 600 * time.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			fanned, serial := takeover(c.prof, c.crash, 0), takeover(c.prof, c.crash, 1)
			t.Logf("first stat: %v fanned out, %v one GET after another; table loaded: %v fanned out, %v one after another; %d GETs",
				fanned.first, serial.first, fanned.loaded, serial.loaded, fanned.gets)
			if fanned.first > c.first || serial.first > c.first {
				t.Errorf("first stat took %v fanned out, %v one GET after another; bound %v", fanned.first, serial.first, c.first)
			}
			if fanned.loaded > c.loaded {
				t.Errorf("the table was loaded after %v, bound %v", fanned.loaded, c.loaded)
			}
			if serial.loaded <= c.loaded {
				t.Errorf("with CheckpointFanout 1 the table was loaded after %v: the bound %v does not tell the two apart", serial.loaded, c.loaded)
			}
			if fanned.gets < files || fanned.gets != serial.gets || fanned.puts != serial.puts || fanned.deletes != serial.deletes {
				t.Errorf("store requests differ: fanned out %+v, serial %+v", fanned, serial)
			}
		})
	}
}

// childGets records, per client store, when each inode GET of a directory's
// children started, and makes every inode GET take delay.
type childGets struct {
	objstore.Store
	env      sim.Env
	delay    time.Duration
	children map[string]bool

	mu      sync.Mutex
	started []time.Duration
}

func (s *childGets) Get(key string) ([]byte, error) {
	if s.children[key] {
		s.mu.Lock()
		s.started = append(s.started, s.env.Now())
		s.mu.Unlock()
	}
	if strings.HasPrefix(key, prt.PrefixInode) {
		s.env.Sleep(s.delay)
	}
	return s.Store.Get(key)
}

func (s *childGets) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.started)
}

// bigDir makes /d with n files through a set-up client that then closes,
// and returns /d's inode number and its children's inode keys.
func bigDir(t *testing.T, net *rpc.Network, mem objstore.Store, lp time.Duration, n int) (types.Ino, map[string]bool) {
	t.Helper()
	if err := Format(prt.New(mem, 4096)); err != nil {
		t.Fatal(err)
	}
	setup := New(net, prt.New(mem, 4096), Options{ID: "setup", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp})
	if err := setup.Mkdir(bgCtx, "/d", 0777); err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		f, err := setup.Create(bgCtx, fmt.Sprintf("/d/f%03d", i), 0644)
		if err != nil {
			t.Fatal(err)
		}
		keys[prt.InodeKey(f.Ino())] = true
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dir, err := setup.Stat(bgCtx, "/d")
	if err != nil {
		t.Fatal(err)
	}
	if err := setup.Close(); err != nil {
		t.Fatal(err)
	}
	return dir.Ino, keys
}

// A table no longer led stops its loader. Client a takes /d (100 children,
// each GET 20 ms, one at a time) over with a stat, and drops it before the
// load is done: by ReleaseDir, by a crash, or by a redirect (a is cut off
// from the manager until b has the directory; a's next acquire is told to go
// to b). No GET of a child starts afterwards.
func TestDroppedTableStopsItsLoader(t *testing.T) {
	const lp = 200 * time.Millisecond
	for _, how := range []string{"release", "crash", "redirect"} {
		t.Run(how, func(t *testing.T) {
			env := sim.NewVirtEnv()
			env.Run(func() {
				mem := objstore.NewMemStore()
				net := rpc.NewNetwork(env, sim.NetModel{})
				mgr := lease.NewManager(net, lease.Options{Period: lp})
				defer mgr.Close()
				dir, keys := bigDir(t, net, mem, lp, 100)
				st := &childGets{Store: mem, env: env, delay: 20 * time.Millisecond, children: keys}
				a := New(net, prt.New(st, 4096), Options{ID: "a", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
					Journal: journal.Config{CheckpointFanout: 1}})
				if _, err := a.Stat(bgCtx, "/d/f050"); err != nil {
					t.Fatal(err)
				}
				switch how {
				case "release":
					if err := a.ReleaseDir(dir); err != nil {
						t.Fatal(err)
					}
				case "crash":
					a.Crash()
				case "redirect":
					fp := rpc.NewFaultPlan(env, 1)
					net.SetFaultPlan(fp)
					cut := fp.Partition([]rpc.Addr{a.Addr()}, []rpc.Addr{"leasemgr"})
					env.Sleep(2*lp + lp/2) // a's leases and their grace run out
					b := New(net, prt.New(mem, 4096), Options{ID: "b", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp})
					defer b.Close()
					if _, err := b.Stat(bgCtx, "/d/f001"); err != nil {
						t.Fatal(err)
					}
					if !b.Leads(dir) {
						t.Fatal("b did not take /d over")
					}
					cut.Heal()
					if _, leader, err := a.routeFor(bgCtx, dir); err != nil || leader != b.Addr() {
						t.Fatalf("a's route to /d: %q, %v; want a redirect to b", leader, err)
					}
				}
				dropped := env.Now()
				n := st.count()
				env.Sleep(5 * time.Second)
				if n >= len(keys) {
					t.Fatalf("the load had ended (%d GETs) before the table was dropped at +%v", n, dropped)
				}
				if got := st.count(); got != n {
					t.Fatalf("%d child GETs started after the table was dropped (%d before)", got-n, n)
				}
				_ = a.Close()
			})
		})
	}
}

// Under RealEnv, Close returns only after the loader of every table has
// ended: no goroutine is left running one, and the count is back where it
// was before the takeover.
func TestCloseWaitsForTheLoader(t *testing.T) {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	const lp = 5 * time.Second
	mem := objstore.NewMemStore()
	net := rpc.NewNetwork(env, sim.NetModel{})
	mgr := lease.NewManager(net, lease.Options{Period: lp})
	defer mgr.Close()
	_, keys := bigDir(t, net, mem, lp, 200)
	st := &childGets{Store: mem, env: env, delay: 5 * time.Millisecond, children: keys}
	a := New(net, prt.New(st, 4096), Options{ID: "a", Cred: types.Cred{Uid: 1, Gid: 1}, LeasePeriod: lp,
		Journal: journal.Config{CheckpointFanout: 2}})
	base := runtime.NumGoroutine()
	if _, err := a.Stat(bgCtx, "/d/f100"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := st.count(); n >= len(keys) {
		t.Fatalf("the load had ended (%d GETs) before Close", n)
	}
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "metatable.(*Table).loadAll") {
		t.Fatalf("a loader is still running after Close:\n%s", stacks)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, %d before the takeover", n, base)
	}
}

// failKey fails, while armed, every GET of one key with EIO.
type failKey struct {
	objstore.Store
	key   string
	armed atomic.Bool
}

func (s *failKey) Get(key string) ([]byte, error) {
	if key == s.key && s.armed.Load() {
		return nil, fmt.Errorf("failKey %s: %w", key, types.ErrIO)
	}
	return s.Store.Get(key)
}

// targetDir is the common part of the two tests below: /d with 100 files and
// a file /x at the root, written by set-up clients that then close; spoil is
// then called with /d/f050's inode key. Client a, whose store is st, its
// child GETs taking 20 ms one after another, takes /d over with a stat of
// /d/f001: its loader is far from /d/f050 when the test touches it. It
// returns a, a's led /d and /d's dentry block as the set-up clients left it.
func targetDir(t *testing.T, env *sim.VirtEnv, spoil func(mem objstore.Store, key string), st func(objstore.Store) objstore.Store) (*Client, *ledDir, []byte) {
	t.Helper()
	const lp = 200 * time.Millisecond
	cred := types.Cred{Uid: 1, Gid: 1}
	mem := objstore.NewMemStore()
	net := rpc.NewNetwork(env, sim.NetModel{})
	lease.NewManager(net, lease.Options{Period: lp})
	dir, keys := bigDir(t, net, mem, lp, 100)
	probe := New(net, prt.New(mem, 4096), Options{ID: "probe", Cred: cred, LeasePeriod: lp})
	victim, err := probe.Stat(bgCtx, "/d/f050")
	if err != nil {
		t.Fatal(err)
	}
	if err := createFile(probe, "/x"); err != nil {
		t.Fatal(err)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	block, err := mem.Get(prt.DentryKey(dir))
	if err != nil {
		t.Fatal(err)
	}
	spoil(mem, prt.InodeKey(victim.Ino))
	a := New(net, prt.New(st(&childGets{Store: mem, env: env, delay: 20 * time.Millisecond, children: keys}), 4096),
		Options{ID: "a", Cred: cred, LeasePeriod: lp, Journal: journal.Config{CheckpointFanout: 1}})
	if _, err := a.Stat(bgCtx, "/d/f001"); err != nil {
		t.Fatal(err)
	}
	ld, ok := a.ledDirFor(dir)
	if !ok {
		t.Fatal("a did not take /d over")
	}
	return a, ld, block
}

// targetOps are the three leader-side operations that put an entry under a
// name of the led directory ld, each onto /d/f050: a create, a rename within
// /d (of f002), and the participant half of a rename into /d. They are
// called directly: a walk through the client API looks the name up first,
// and an operation that finds the directory read-only at its start refuses
// anyway. A remote client that resolves names from its permission cache, or
// a rename's coordinator, reaches them with the name not yet fetched.
func targetOps(a *Client, ld *ledDir, moved *types.Inode) map[string]func() error {
	dir := ld.table.Dir().Ino
	cred := types.Cred{Uid: 1, Gid: 1}
	return map[string]func() error{
		"create": func() error {
			_, _, err := a.localCreate(bgCtx, ld, dir, "f050",
				CreateReq{Type: types.TypeRegular, Mode: 0644, Cred: cred, NewIno: a.inoSrc.Next()})
			return err
		},
		"rename": func() error { return a.localRenameSameDir(bgCtx, ld, dir, "f002", "f050", cred) },
		"rename-2pc": func() error {
			return a.prepareRenameLocal(bgCtx, ld, PrepareRenameReq{TxID: 1, CoordDir: types.RootIno,
				DstDir: dir, DstName: "f050", Child: moved, Cred: cred})
		},
	}
}

var targetOpNames = []string{"create", "rename", "rename-2pc"}

// A create or a rename onto the name of a child that turns out corrupt or
// missing when the new leader first fetches it is refused with EROFS. The
// fetch drops the child, so the name reads as free; but the directory turned
// read-only with the drop, and an entry put under the name would replace the
// lost one in the store and leave its inode an orphan. The dentry block in
// the store stays the one the set-up clients wrote.
func TestWriteOntoADroppedChildIsRefused(t *testing.T) {
	spoils := map[string]func(mem objstore.Store, key string){
		"corrupt": func(mem objstore.Store, key string) {
			raw, err := mem.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			raw = append([]byte(nil), raw...)
			raw[len(raw)/2] ^= 0x10
			if err := mem.Put(key, raw); err != nil {
				t.Fatal(err)
			}
		},
		"missing": func(mem objstore.Store, key string) {
			if err := mem.Delete(key); err != nil {
				t.Fatal(err)
			}
		},
	}
	for _, bad := range []string{"corrupt", "missing"} {
		for _, op := range targetOpNames {
			t.Run(bad+"/"+op, func(t *testing.T) {
				env := sim.NewVirtEnv()
				env.Run(func() {
					var mem objstore.Store
					a, ld, block := targetDir(t, env, func(m objstore.Store, key string) {
						mem = m
						spoils[bad](m, key)
					}, func(st objstore.Store) objstore.Store { return st })
					moved := &types.Inode{Ino: a.inoSrc.Next(), Type: types.TypeRegular, Mode: 0644, Nlink: 1}
					if err := targetOps(a, ld, moved)[op](); !errors.Is(err, types.ErrReadOnly) {
						t.Fatalf("%s onto the %s child: %v, want EROFS", op, bad, err)
					}
					if ld.table.Lost() != 1 {
						t.Fatalf("lost %d, want 1", ld.table.Lost())
					}
					if err := a.Close(); err != nil {
						t.Fatal(err)
					}
					after, err := mem.Get(prt.DentryKey(ld.table.Dir().Ino))
					if err != nil || !bytes.Equal(after, block) {
						t.Fatalf("/d's dentry block changed in the store (%v)", err)
					}
				})
			})
		}
	}
}

// A create or a rename whose lookup of the target name fails for a reason
// other than a missing name (here EIO from the child's GET) returns that
// error and changes nothing: the name is not taken to be free, which would
// end in a spurious EEXIST, or, for a rename, in its source taken out of the
// table. Once the store answers again, both names are as they were.
func TestTargetLookupErrorIsTheOperations(t *testing.T) {
	env := sim.NewVirtEnv()
	env.Run(func() {
		var fail *failKey
		a, ld, _ := targetDir(t, env, func(_ objstore.Store, key string) { fail = &failKey{key: key} },
			func(st objstore.Store) objstore.Store {
				fail.Store = st
				return fail
			})
		want, err := ld.table.Peek("f002")
		if err != nil {
			t.Fatal(err)
		}
		fail.armed.Store(true)
		moved := &types.Inode{Ino: a.inoSrc.Next(), Type: types.TypeRegular, Mode: 0644, Nlink: 1}
		ops := targetOps(a, ld, moved)
		for _, op := range targetOpNames {
			if err := ops[op](); !errors.Is(err, types.ErrIO) {
				t.Errorf("%s onto a child whose GET fails: %v, want EIO", op, err)
			}
		}
		fail.armed.Store(false)
		if got, err := ld.table.Peek("f002"); err != nil || got != want {
			t.Errorf("f002 after the failed renames: %v, %v", got, err)
		}
		if got, err := ld.table.Peek("f050"); err != nil || got.Ino == moved.Ino {
			t.Errorf("f050 after the failed operations: %+v, %v", got, err)
		}
		if n := ld.table.Len(); n != 100 || ld.writable() != nil {
			t.Errorf("%d entries, writable %v", n, ld.writable())
		}
		_ = a.Close()
	})
}
