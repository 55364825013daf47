package distrib

import (
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/scenario"
)

// boundEntry caches one resolved point spec on the worker: consecutive
// leases of the same sweep point (different trial ranges) rebind nothing
// — in particular a topology graph and its route plane are built once.
type boundEntry struct {
	bound   *scenario.Bound
	extract []func(*scenario.Result) float64
}

// bindSpec resolves a lease's spec exactly as the in-process executor
// does: metrics first (coordinator-resolved names travel in the spec),
// then the scenario, then the extractors.
func bindSpec(spec scenario.Spec) (*boundEntry, error) {
	_, defs, err := scenario.ResolveMetrics(spec)
	if err != nil {
		return nil, err
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		return nil, err
	}
	extract, err := b.MetricExtractors(defs)
	if err != nil {
		return nil, err
	}
	return &boundEntry{bound: b, extract: extract}, nil
}

// runLease executes one lease's trial range and returns the per-trial
// metric vectors in seed order. A panicking trial (annotated by the
// runner with its index) is converted into an error: lease failures of
// this kind are deterministic, so the coordinator aborts instead of
// retrying.
func runLease(bound *boundEntry, lo, hi int) (vals [][]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("distrib: lease [%d,%d) panicked: %v", lo, hi, r)
		}
	}()
	return bound.bound.RunTrialValues(bound.extract, lo, hi, 0), nil
}

// Serve runs the worker side of the protocol on one transport until the
// coordinator closes the stream: answer the hello, then turn every lease
// into a result (or a deterministic error), across any number of Run
// calls on the coordinator's side. The worker runs one lease at a time —
// parallelism inside a lease comes from the lease's trial fan-out, and
// parallelism across leases from the coordinator driving many workers.
func Serve(t Transport) error {
	var m Msg
	if err := t.Recv(&m); err != nil {
		return fmt.Errorf("distrib: worker hello: %w", err)
	}
	if m.Type != msgHello || m.Version != Version {
		// Answer with our version anyway so the coordinator's error names
		// both sides, then refuse.
		t.Send(&Msg{Type: msgHello, Version: Version})
		return fmt.Errorf("distrib: coordinator hello %q v%d (want v%d)", m.Type, m.Version, Version)
	}
	if err := t.Send(&Msg{Type: msgHello, Version: Version}); err != nil {
		return err
	}

	bounds := map[string]*boundEntry{}
	for {
		if err := t.Recv(&m); err != nil {
			if err == io.EOF {
				return nil // coordinator went away; nothing to clean up
			}
			return err
		}
		switch m.Type {
		case msgLease:
			if m.Spec == nil {
				return fmt.Errorf("distrib: lease %d without a spec", m.ID)
			}
			reply := handleLease(bounds, &m)
			if err := t.Send(reply); err != nil {
				return err
			}
		default:
			return fmt.Errorf("distrib: unexpected %q message", m.Type)
		}
	}
}

// handleLease resolves (with caching) and runs one lease.
func handleLease(bounds map[string]*boundEntry, m *Msg) *Msg {
	key := scenario.SpecHash(*m.Spec)
	entry, ok := bounds[key]
	if !ok {
		var err error
		if entry, err = bindSpec(*m.Spec); err != nil {
			return &Msg{Type: msgError, ID: m.ID, Err: err.Error()}
		}
		// The cache is per sweep: a handful of points, each bound once. A
		// pathological session cycling thousands of specs just starts over.
		if len(bounds) >= 256 {
			clear(bounds)
		}
		bounds[key] = entry
	}
	vals, err := runLease(entry, m.Lo, m.Hi)
	if err != nil {
		return &Msg{Type: msgError, ID: m.ID, Err: err.Error()}
	}
	return &Msg{Type: msgResult, ID: m.ID, Vals: PackVals(vals)}
}

// ServeStdio serves one session over the process's stdin/stdout — the
// worker mode -distribute spawns (see Fleet).
func ServeStdio() error {
	return Serve(NewStreamTransport(os.Stdin, os.Stdout))
}

// ServeTCP accepts connections on ln and serves each in its own
// goroutine until the listener closes — the amworker -listen mode.
func ServeTCP(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer conn.Close()
			if err := Serve(NewStreamTransport(conn, conn, conn)); err != nil {
				fmt.Fprintln(os.Stderr, "amworker:", err)
			}
		}()
	}
}
