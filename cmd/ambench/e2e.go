package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run binds and warms the workload up;
	// setup_s is their median.
	setupReps = 25
	// minReps is the fewest timed repetitions a run does, whatever its
	// budget.
	minReps = 3
)

// e2eRun is the outcome of the untraced, timed pass: one sample per set-up
// and per repetition.
type e2eRun struct {
	setup   []float64 // seconds per set-up
	wall    []float64 // seconds per repetition
	allocs  []float64 // heap allocations per op, per repetition
	bytes   []float64 // heap bytes allocated per op, per repetition
	appends float64   // simulated appends in one repetition
	opsRep  int       // ops in one repetition
	rssMB   float64   // peak resident set size of the process

	ops, failed int
	digests     []string // one per repetition, the warm-up's first
}

// timed runs one untimed warm-up repetition, then sets the job up
// setupReps times, then runs repetitions of fixed work until the budget
// is spent, with a GC before each so one repetition's garbage is not
// collected on the next one's clock. The warm-up fills the pools and takes
// the process past its slow first second, which would otherwise land on
// the set-ups and the first repetition. It stops at the first failed
// repetition.
func timed(j job, budget time.Duration) (*e2eRun, error) {
	r := &e2eRun{}
	if err := r.add(j.rep()); err != nil {
		return r, err
	}
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if err := j.setup(); err != nil {
			return r, fmt.Errorf("set-up: %w", err)
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
	}
	begin := time.Now()
	var last time.Duration
	for len(r.wall) < minReps || time.Since(begin)+last <= budget {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		out, err := j.rep()
		last = time.Since(start)
		runtime.ReadMemStats(&after)
		if err := r.add(out, err); err != nil {
			return r, err
		}
		ops := float64(out.ops)
		r.wall = append(r.wall, last.Seconds())
		r.allocs = append(r.allocs, float64(after.Mallocs-before.Mallocs)/ops)
		r.bytes = append(r.bytes, float64(after.TotalAlloc-before.TotalAlloc)/ops)
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return r, fmt.Errorf("getrusage: %w", err)
	}
	r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return r, nil
}

// add accounts one repetition's ops and output.
func (r *e2eRun) add(out repOutput, err error) error {
	r.ops += out.ops
	r.failed += out.failed
	r.appends = out.appends
	r.opsRep = out.ops
	r.digests = append(r.digests, out.digest)
	return err
}

// metrics summarizes the run as the end-to-end metrics. A repetition's
// time is the median one's. Other tenants' load on a shared machine slows
// whole runs for many seconds at a time; a median over the run follows the
// load the run saw as a whole, while the fastest repetition hangs on
// whether a quiet moment happened to come, and varied more from run to run
// under sustained load (README.md says by how much).
func (r *e2eRun) metrics() metricSet {
	wall := median(r.wall)
	return metricSet{
		"setup_s":       median(r.setup),
		"wall_s":        wall,
		"ops_per_s":     float64(r.opsRep) / wall,
		"allocs_per_op": median(r.allocs),
		"bytes_per_op":  median(r.bytes),
	}
}
