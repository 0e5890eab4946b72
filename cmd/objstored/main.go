// Command objstored serves an object store over the REST API the PRT module
// consumes (PUT/GET/HEAD/DELETE /o/<key>, GET /list?prefix=). It is the
// S3-compatible backend for live multi-process ArkFS demos.
//
// Usage:
//
//	objstored [-listen :9000] [-debug-addr :9100]
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"

	"arkfs/internal/objstore"
	"arkfs/internal/obs"
	"arkfs/internal/obs/expose"
)

func main() {
	listen := flag.String("listen", ":9000", "HTTP listen address")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /stats.json, /healthz and pprof on this address (empty: off)")
	flag.Parse()
	store := objstore.NewMemStore()
	gw := objstore.NewGateway(store)
	if *debugAddr != "" {
		reg := obs.NewRegistry()
		gw.SetObs(reg)
		dbg, err := expose.Serve(*debugAddr, expose.Options{Reg: reg})
		if err != nil {
			log.Fatalf("objstored: debug server: %v", err)
		}
		defer dbg.Close()
		fmt.Printf("objstored: debug endpoints on http://%s/\n", dbg.Addr())
	}
	fmt.Printf("objstored: serving object REST API on %s\n", *listen)
	log.Fatal(http.ListenAndServe(*listen, gw))
}
