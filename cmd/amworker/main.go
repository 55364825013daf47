// Command amworker serves append-memory sweep leases to a distributed
// amrun or amsearch coordinator over TCP, for fleets that span machines.
// It speaks the internal/distrib length-prefixed JSON protocol:
//
//	amworker -listen :7070          # on each worker machine
//	amrun -spec sweep.json -workers-addr host1:7070,host2:7070
//
// Local workers need no separate binary: -distribute N re-execs the
// coordinator's own binary in its hidden stdio worker mode.
//
// A worker holds no state a coordinator depends on: killing one
// mid-sweep only moves its leases elsewhere, the merged output is
// byte-identical.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/distrib"
)

func main() {
	listen := flag.String("listen", "", "serve leases over TCP on this address (required)")
	flag.Parse()

	if *listen == "" {
		fatal(fmt.Errorf("-listen is required (local workers are spawned by -distribute)"))
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "amworker: serving leases on %s\n", ln.Addr())
	if err := distrib.ServeTCP(ln); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amworker:", err)
	os.Exit(1)
}
