// Shareddir: the client-driven metadata service under contention — the
// scenario of the paper's Figure 3. Several clients work in the same
// directory: the first to touch it becomes the directory leader, the rest
// forward their operations to it over RPC; when the leader releases its
// lease, leadership migrates. A cross-directory rename demonstrates the
// two-phase commit between two leaders.
//
// Run with:
//
//	go run ./examples/shareddir
package main

import (
	"context"
	"fmt"
	"log"

	"arkfs/internal/core"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/prt"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

func main() {
	env := sim.NewRealEnv()
	defer env.Shutdown()
	store := objstore.NewMemStore()
	tr := prt.New(store, 0)
	must(core.Format(tr))
	net := rpc.NewNetwork(env, sim.NetModel{})
	reg := obs.NewRegistry()
	mgr := lease.NewManager(net, lease.Options{Obs: reg})
	defer mgr.Close()

	// Three clients, as in Figure 3: C1 will lead / and /home, C2 will lead
	// /home/doc.
	c1 := core.New(net, tr, core.Options{ID: "C1", Cred: types.Cred{Uid: 1, Gid: 1}})
	defer c1.Close()
	c2 := core.New(net, tr, core.Options{ID: "C2", Cred: types.Cred{Uid: 2, Gid: 2}})
	defer c2.Close()
	c3 := core.New(net, tr, core.Options{ID: "C3", Cred: types.Cred{Uid: 3, Gid: 3}})
	defer c3.Close()
	ctx := context.Background()

	// C1 builds the hierarchy — it becomes the leader of / and /home.
	must(c1.Mkdir(ctx, "/home", 0777))
	f, err := c1.Create(ctx, "/home/foo.txt", 0666)
	must(err)
	_, _ = f.Write([]byte("foo"))
	must(f.Close())

	// C2 creates /home/doc and works inside it — C2 is its leader, while
	// its create of the "doc" entry itself was forwarded to C1 (leader of
	// /home), exactly the redirection of Figure 3(b).
	must(c2.Mkdir(ctx, "/home/doc", 0777))
	g, err := c2.Create(ctx, "/home/doc/bar.txt", 0666)
	must(err)
	_, _ = g.Write([]byte("bar"))
	must(g.Close())

	fmt.Println("after setup:")
	report(c1, "C1")
	report(c2, "C2")

	// C3 reads through both leaders: lookups for /home go to C1, lookups
	// for /home/doc go to C2.
	st, err := c3.Stat(ctx, "/home/doc/bar.txt")
	must(err)
	fmt.Printf("C3 stats /home/doc/bar.txt through two leaders: size=%d\n", st.Size)

	// Cross-directory rename: /home (led by C1) -> /home/doc (led by C2).
	// C1 coordinates a two-phase commit with C2's journal.
	must(c3.Rename(ctx, "/home/foo.txt", "/home/doc/foo-moved.txt"))
	ents, err := c3.Readdir(ctx, "/home/doc")
	must(err)
	fmt.Print("after 2PC rename, /home/doc:")
	for _, de := range ents {
		fmt.Printf(" %s", de.Name)
	}
	fmt.Println()

	// Leadership hand-off: C1 releases /home; C3 takes over on next access.
	res, err := c1.Stat(ctx, "/home")
	must(err)
	must(c1.ReleaseDir(res.Ino))
	_, err = c3.Readdir(ctx, "/home") // C3 acquires the lease and loads the metatable
	must(err)
	fmt.Println("after C1 released /home:")
	report(c3, "C3")

	fmt.Printf("lease manager: %d acquires, %d redirects, %d extensions\n",
		reg.Counter("lease.acquires").Value(), reg.Counter("lease.redirects").Value(), reg.Counter("lease.extensions").Value())
}

func report(c *core.Client, name string) {
	s := c.StatCounters()
	fmt.Printf("  %s: local metadata ops=%d, forwarded ops=%d, lease acquires=%d\n",
		name, s.LocalMetaOps.Load(), s.RemoteMetaOps.Load(), s.LeaseAcquires.Load())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
