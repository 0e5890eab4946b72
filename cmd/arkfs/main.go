// Command arkfs is the interactive ArkFS client: a shell-style CLI over a
// live deployment. It can run fully self-contained (in-memory store +
// embedded lease manager) or join a multi-process cluster (HTTP object
// store via objstored, lease manager via leasemgr, peer clients over TCP
// bridges).
//
// Usage:
//
//	arkfs [flags] <command> [args...]
//	arkfs [flags] shell          # interactive mode
//
// Commands:
//
//	format                        initialize the file system
//	mkdir <path>                  create a directory
//	ls <path>                     list a directory
//	stat <path>                   show inode details
//	put <local> <path>            copy a local file in
//	get <path> <local>            copy a file out
//	cat <path>                    print a file
//	write <path> <text>           write text to a file
//	rm <path> | rmdir <path>      remove entries
//	mv <src> <dst>                rename
//	ln -s <target> <path>         create a symlink
//	chmod <octal> <path>          change permissions
//	tree <path>                   recursive listing
package main

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/netip"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"arkfs/internal/cache"
	"arkfs/internal/core"
	"arkfs/internal/lease"
	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/obs/expose"
	"arkfs/internal/prt"
	"arkfs/internal/qos"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
	"arkfs/internal/types"
)

func main() {
	var (
		storeURL = flag.String("store", "", "objstored base URL (empty: in-memory store)")
		mgrAddr  = flag.String("leasemgr", "", "lease manager address, e.g. tcp!127.0.0.1:7400 (empty: embedded)")
		mgrRing  = flag.String("leasemgrs", "", "comma-separated lease-shard ring, e.g. tcp!h:7400,tcp!h:7401 (as printed by leasemgr -shards N; overrides -leasemgr)")
		id       = flag.String("id", defaultID(), "client id, unique per process (default: host and pid)")
		serve    = flag.String("serve", "", "host:port to serve forwarded ops from peer clients on; advertised to them, so not a wildcard")
		uid      = flag.Uint("uid", 1000, "credential uid")
		gid      = flag.Uint("gid", 1000, "credential gid")
		retries  = flag.Int("store-retries", 4, "retry transient object-store failures up to N attempts (0: fail fast)")
		backoff  = flag.Duration("retry-backoff", 2*time.Millisecond, "initial retry backoff, doubling per attempt")

		qosRate  = flag.Float64("qos-rate", 0, "admission rate per origin client for forwarded ops this client serves as leader, ops/sec (0: no admission control)")
		qosBurst = flag.Float64("qos-burst", 8, "admission burst depth per origin client (with -qos-rate)")

		debugAddr = flag.String("debug-addr", "", "serve /metrics, /stats.json, /traces, /healthz and pprof on this address (empty: off)")
		slowOp    = flag.Duration("slow-op", 0, "log operations slower than this with their trace IDs (0: off; needs -debug-addr)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	env := sim.NewRealEnv()
	defer env.Shutdown()
	net := rpc.NewNetwork(env, sim.NetModel{})

	var store objstore.Store
	if *storeURL != "" {
		store = objstore.NewHTTPStore(*storeURL)
	} else {
		store = objstore.NewMemStore()
	}
	tr := prt.New(store, 0)

	// Lease routing: a static ring of remote shards (-leasemgrs), one remote
	// manager (-leasemgr), or an embedded manager. The ring member strings
	// must match the ones leasemgr advertises byte-for-byte — rendezvous
	// routing hashes the address bytes, so any difference splits ownership.
	var ring lease.Ring
	leaseAddr := rpc.Addr(*mgrAddr)
	if *mgrRing != "" {
		var members []rpc.Addr
		for _, part := range strings.Split(*mgrRing, ",") {
			if part = strings.TrimSpace(part); part != "" {
				members = append(members, rpc.Addr(part))
			}
		}
		if len(members) == 0 {
			fmt.Fprintln(os.Stderr, "arkfs: -leasemgrs needs at least one member")
			os.Exit(2)
		}
		ring = lease.NewRing(members...)
	} else if leaseAddr == "" {
		mgr := lease.NewManager(net, lease.Options{})
		defer mgr.Close()
		leaseAddr = mgr.Addr()
	}

	// The inode stream and the 2PC transaction IDs derive from the seed, so
	// every process draws its own: two processes (or a restart of one -id)
	// must never mint the same inode number. Zero would derive it from the id.
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		log.Fatalf("arkfs: seed: %v", err)
	}
	opts := core.Options{
		ID:        *id,
		Seed:      int64(binary.LittleEndian.Uint64(seed[:]) | 1),
		Cred:      types.Cred{Uid: uint32(*uid), Gid: uint32(*gid)},
		Cache:     cache.DefaultConfig(),
		LeaseMgr:  leaseAddr,
		LeaseRing: ring,
	}
	if *qosRate > 0 {
		opts.QoS = qos.NewLimiter(qos.Limits{Rate: *qosRate, Burst: *qosBurst})
	}
	if *retries > 1 {
		pol := objstore.DefaultRetryPolicy()
		pol.MaxAttempts = *retries
		pol.InitialBackoff = *backoff
		opts.Retry = &pol
	}
	if *slowOp > 0 && *debugAddr == "" {
		fmt.Fprintln(os.Stderr, "arkfs: -slow-op needs -debug-addr (tracing is off without it)")
		os.Exit(2)
	}
	var reg *obs.Registry
	if *debugAddr != "" {
		// The debug server needs an instrumented client: attaching the
		// registry turns on metrics and the trace ring.
		reg = obs.NewRegistry()
		opts.Obs = reg
		net.SetObs(reg)
	}
	if *serve != "" {
		// Bind first: the bound address is the client's identity, the one the
		// lease manager hands to peers. The bridge forwards to the listener an
		// advertised client starts under its service name.
		bridge, err := net.Bridge(*serve, core.ServiceName(*id))
		if err != nil {
			log.Fatalf("arkfs: bridge: %v", err)
		}
		defer bridge.Close()
		// Peers dial the advertised address, and a wildcard bind (":7600" is
		// [::]:7600) names no host they can reach.
		if ap, err := netip.ParseAddrPort(bridge.Addr()); err == nil && ap.Addr().IsUnspecified() {
			log.Fatalf("arkfs: -serve %s: bind the host peers reach this process at, not a wildcard", *serve)
		}
		opts.Advertise = rpc.TCPAddr(bridge.Addr())
		fmt.Fprintf(os.Stderr, "arkfs: serving peers on %s\n", opts.Advertise)
	}
	client := core.New(net, tr, opts)
	defer client.Close()
	if *debugAddr != "" {
		dbg, err := expose.Serve(*debugAddr, expose.Options{
			Reg:     reg,
			Tracers: []*obs.Tracer{client.Tracer()},
		})
		if err != nil {
			log.Fatalf("arkfs: debug server: %v", err)
		}
		defer dbg.Close()
		if *slowOp > 0 {
			expose.AttachSlowOpLog(client.Tracer(),
				slog.New(slog.NewTextHandler(os.Stderr, nil)), *slowOp)
		}
		fmt.Fprintf(os.Stderr, "arkfs: debug endpoints on http://%s/\n", dbg.Addr())
	}

	args := flag.Args()
	if args[0] == "shell" {
		runShell(client, tr)
		return
	}
	if err := runCommand(client, tr, args); err != nil {
		fmt.Fprintf(os.Stderr, "arkfs: %v\n", err)
		os.Exit(1)
	}
}

// defaultID names this process: clients that share an id share an address,
// and the lease manager would take them for one holder.
func defaultID() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("cli-%s-%d", host, os.Getpid())
}

func runShell(c *core.Client, tr *prt.Translator) {
	fmt.Println("arkfs shell — type 'help' or 'quit'")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("arkfs> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if line == "help" {
			fmt.Println("commands: format mkdir ls stat put get cat write rm rmdir mv ln chmod tree fsync quit")
			continue
		}
		if err := runCommand(c, tr, strings.Fields(line)); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

func runCommand(c *core.Client, tr *prt.Translator, args []string) error {
	// The CLI runs one command at a time; interruption is process-level
	// (SIGINT), so operations run under the background context.
	ctx := context.Background()
	cmd, rest := args[0], args[1:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("%s: need %d argument(s)", cmd, n)
		}
		return nil
	}
	switch cmd {
	case "format":
		return core.Format(tr)
	case "mkdir":
		if err := need(1); err != nil {
			return err
		}
		return c.Mkdir(ctx, rest[0], 0755)
	case "ls":
		if err := need(1); err != nil {
			return err
		}
		ents, err := c.Readdir(ctx, rest[0])
		if err != nil {
			return err
		}
		for _, de := range ents {
			fmt.Printf("%-8s %s\n", de.Type, de.Name)
		}
		return nil
	case "stat":
		if err := need(1); err != nil {
			return err
		}
		st, err := c.Stat(ctx, rest[0])
		if err != nil {
			return err
		}
		fmt.Printf("ino:   %s\ntype:  %s\nmode:  %04o\nuid:   %d\ngid:   %d\nsize:  %d\nnlink: %d\nacl:   %s\n",
			st.Ino, st.Type, st.Mode, st.Uid, st.Gid, st.Size, st.Nlink, st.ACL)
		return nil
	case "put":
		if err := need(2); err != nil {
			return err
		}
		data, err := os.ReadFile(rest[0])
		if err != nil {
			return err
		}
		f, err := c.Create(ctx, rest[1], 0644)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			return err
		}
		if err := f.Fsync(ctx); err != nil {
			return err
		}
		return f.Close()
	case "get":
		if err := need(2); err != nil {
			return err
		}
		f, err := c.Open(ctx, rest[0], types.ORdonly, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		out, err := os.Create(rest[1])
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, f)
		return err
	case "cat":
		if err := need(1); err != nil {
			return err
		}
		f, err := c.Open(ctx, rest[0], types.ORdonly, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(os.Stdout, f)
		return err
	case "write":
		if err := need(2); err != nil {
			return err
		}
		f, err := c.Create(ctx, rest[0], 0644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte(strings.Join(rest[1:], " ") + "\n")); err != nil {
			return err
		}
		if err := f.Fsync(ctx); err != nil {
			return err
		}
		return f.Close()
	case "rm":
		if err := need(1); err != nil {
			return err
		}
		return c.Unlink(ctx, rest[0])
	case "rmdir":
		if err := need(1); err != nil {
			return err
		}
		return c.Rmdir(ctx, rest[0])
	case "mv":
		if err := need(2); err != nil {
			return err
		}
		return c.Rename(ctx, rest[0], rest[1])
	case "ln":
		if len(rest) == 3 && rest[0] == "-s" {
			return c.Symlink(ctx, rest[1], rest[2])
		}
		return fmt.Errorf("ln: only 'ln -s <target> <path>' is supported")
	case "chmod":
		if err := need(2); err != nil {
			return err
		}
		mode, err := strconv.ParseUint(rest[0], 8, 16)
		if err != nil {
			return fmt.Errorf("chmod: bad mode %q", rest[0])
		}
		return c.Chmod(ctx, rest[1], types.Mode(mode))
	case "fsync":
		return c.FlushAll(ctx)
	case "tree":
		if err := need(1); err != nil {
			return err
		}
		return tree(c, rest[0], "")
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func tree(c *core.Client, path, indent string) error {
	ents, err := c.Readdir(context.Background(), path)
	if err != nil {
		return err
	}
	for _, de := range ents {
		fmt.Printf("%s%s\n", indent, de.Name)
		if de.Type == types.TypeDir {
			sub := path + "/" + de.Name
			if path == "/" {
				sub = "/" + de.Name
			}
			if err := tree(c, sub, indent+"  "); err != nil {
				return err
			}
		}
	}
	return nil
}
