// Command leasemgr runs the ArkFS lease manager as a standalone process,
// bridged onto a TCP port. ArkFS clients in other processes point their
// -leasemgr flag at it ("tcp!host:port").
//
// With -shards N it runs an N-member static lease ring instead: shard i
// listens on -listen's port + i, and every shard shares the same epoch-1
// ring over the advertised "tcp!host:port" members. Clients join with the
// printed -leasemgrs list; routing is rendezvous hashing over the member
// strings, so client and shard agree on ownership byte-for-byte.
//
// Usage:
//
//	leasemgr [-listen :7400] [-shards 1] [-period 5s] [-restarted] [-debug-addr :7500] [-slow-op 50ms]
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	stdnet "net"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"arkfs/internal/lease"
	"arkfs/internal/obs"
	"arkfs/internal/obs/expose"
	"arkfs/internal/rpc"
	"arkfs/internal/sim"
)

func main() {
	listen := flag.String("listen", ":7400", "TCP listen address (with -shards N, shard i listens on port+i)")
	shards := flag.Int("shards", 1, "run an N-member static lease ring in this process")
	period := flag.Duration("period", lease.DefaultPeriod, "lease period")
	restarted := flag.Bool("restarted", false, "start in the post-crash quiesce state")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /stats.json, /traces, /healthz and pprof on this address (empty: off)")
	slowOp := flag.Duration("slow-op", 0, "log lease operations slower than this (0: off; needs -debug-addr)")
	flag.Parse()
	if *shards < 1 {
		log.Fatalf("leasemgr: -shards must be >= 1, got %d", *shards)
	}

	env := sim.NewRealEnv()
	net := rpc.NewNetwork(env, sim.NetModel{})
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		net.SetObs(reg)
	}

	// Bind addresses and advertised ring members. A shard cannot listen at a
	// tcp! address itself (the bridge would dial it in a loop), so each one
	// listens under a local name and advertises the bridged endpoint.
	binds := make([]string, *shards)
	members := make([]rpc.Addr, *shards)
	if *shards == 1 {
		binds[0] = *listen
	} else {
		host, portStr, err := stdnet.SplitHostPort(*listen)
		if err != nil {
			log.Fatalf("leasemgr: -shards needs -listen host:port: %v", err)
		}
		port, err := strconv.Atoi(portStr)
		if err != nil {
			log.Fatalf("leasemgr: -listen port %q: %v", portStr, err)
		}
		for i := range binds {
			binds[i] = stdnet.JoinHostPort(host, strconv.Itoa(port+i))
			members[i] = rpc.TCPAddr(binds[i])
		}
	}
	var ring lease.Ring
	if *shards > 1 {
		ring = lease.NewRing(members...)
	}

	mgrs := make([]*lease.Manager, *shards)
	srvs := make([]*rpc.TCPServer, *shards)
	var tracers []*obs.Tracer
	for i := range mgrs {
		opts := lease.Options{
			Period:    *period,
			Workers:   8,
			Restarted: *restarted,
			Obs:       reg,
		}
		if *shards > 1 {
			opts.Addr = rpc.Addr(fmt.Sprintf("shard%d", i))
			opts.Advertise = members[i]
			opts.Ring = ring
		}
		mgrs[i] = lease.NewManager(net, opts)
		srv, err := net.Bridge(binds[i], mgrs[i].Addr())
		if err != nil {
			log.Fatalf("leasemgr: shard %d: %v", i, err)
		}
		srvs[i] = srv
		if t := mgrs[i].Tracer(); t != nil {
			tracers = append(tracers, t)
		}
	}

	if *debugAddr != "" {
		dbg, err := expose.Serve(*debugAddr, expose.Options{
			Reg:     reg,
			Tracers: tracers,
		})
		if err != nil {
			log.Fatalf("leasemgr: debug server: %v", err)
		}
		defer dbg.Close()
		if *slowOp > 0 {
			lg := slog.New(slog.NewTextHandler(os.Stderr, nil))
			for _, t := range tracers {
				expose.AttachSlowOpLog(t, lg, *slowOp)
			}
		}
		fmt.Printf("leasemgr: debug endpoints on http://%s/\n", dbg.Addr())
	} else if *slowOp > 0 {
		fmt.Fprintln(os.Stderr, "leasemgr: -slow-op needs -debug-addr (tracing is off without it)")
		os.Exit(2)
	}

	if *shards == 1 {
		fmt.Printf("leasemgr: serving leases on %s (period %v)\n", srvs[0].Addr(), *period)
		fmt.Printf("leasemgr: clients connect with -leasemgr 'tcp!%s'\n", srvs[0].Addr())
	} else {
		parts := make([]string, len(members))
		for i, m := range members {
			parts[i] = string(m)
		}
		fmt.Printf("leasemgr: serving a %d-shard lease ring (epoch %d, period %v)\n",
			*shards, ring.Epoch, *period)
		fmt.Printf("leasemgr: clients connect with -leasemgrs '%s'\n", strings.Join(parts, ","))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	for i := range mgrs {
		srvs[i].Close()
		mgrs[i].Close()
	}
	env.Shutdown()
}
