package distrib

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// Fleet holds the command-line options that shard a command's trials
// across worker processes; amrun and amsearch register the same set.
type Fleet struct {
	spawn        int
	addrs        string
	cacheDir     string
	leaseTimeout time.Duration
	chunk        int
	serve        bool
}

// workerFlag is the hidden flag -distribute re-execs its own binary with.
const workerFlag = "amworker"

// FleetFlags registers -distribute, -workers-addr, -cache,
// -lease-timeout, -chunk and the hidden -amworker on fs.
func FleetFlags(fs *flag.FlagSet) *Fleet {
	f := &Fleet{}
	fs.IntVar(&f.spawn, "distribute", 0, "spawn this many local worker processes and shard trials across them")
	fs.StringVar(&f.addrs, "workers-addr", "", "comma-separated amworker TCP addresses to shard trials across")
	fs.StringVar(&f.cacheDir, "cache", "", "content-addressed lease result cache directory")
	fs.DurationVar(&f.leaseTimeout, "lease-timeout", 0, "per-lease worker timeout before reassignment (0 = 2m)")
	fs.IntVar(&f.chunk, "chunk", 0, "trials per distributed lease (0 = 16; shapes cache keys)")
	fs.BoolVar(&f.serve, workerFlag, false, "internal: serve leases over stdio (what -distribute spawns)")
	return f
}

// Enabled reports whether any fleet option asks for distributed
// execution.
func (f *Fleet) Enabled() bool { return f.spawn > 0 || f.addrs != "" || f.cacheDir != "" }

// ServeIfWorker reports whether this process is a worker spawned by
// -distribute; if so it first serves leases over stdio until the
// coordinator hangs up.
func (f *Fleet) ServeIfWorker() (bool, error) {
	if !f.serve {
		return false, nil
	}
	return true, ServeStdio()
}

// Connect assembles the fleet: the -workers-addr workers dialed, the
// -distribute workers spawned as re-execs of this binary, and the -cache
// opened. The returned release closes every worker.
func (f *Fleet) Connect() (Config, func(), error) {
	var ws []Transport
	release := func() {
		for _, w := range ws {
			w.Close()
		}
	}
	cfg := Config{LeaseTimeout: f.leaseTimeout, ChunkSize: f.chunk}
	if f.addrs != "" {
		remote, err := DialWorkers(f.addrs)
		if err != nil {
			return cfg, nil, err
		}
		ws = append(ws, remote...)
	}
	if f.spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			release()
			return cfg, nil, fmt.Errorf("cannot locate own binary to spawn workers: %w", err)
		}
		procs, err := SpawnN(f.spawn, []string{exe, "-" + workerFlag}, nil)
		if err != nil {
			release()
			return cfg, nil, err
		}
		for _, p := range procs {
			ws = append(ws, p)
		}
	}
	if f.cacheDir != "" {
		cache, err := NewCache(f.cacheDir, 0)
		if err != nil {
			release()
			return cfg, nil, err
		}
		cfg.Cache = cache
	}
	cfg.Workers = ws
	return cfg, release, nil
}
