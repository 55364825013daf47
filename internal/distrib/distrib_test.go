package distrib

import (
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestMain doubles this test binary as a worker process: when the helper
// env var is set, the "test" is a stdio amworker. SpawnN re-execs the
// binary with the variable set, so the multi-process tests exercise the
// real spawn/pipe/frame path without building a separate binary.
func TestMain(m *testing.M) {
	if os.Getenv("DISTRIB_STDIO_WORKER") == "1" {
		if err := ServeStdio(); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnProcWorkers starts n real worker processes backed by this test
// binary and returns them with a cleanup.
func spawnProcWorkers(t *testing.T, n int) []*Proc {
	t.Helper()
	procs, err := SpawnN(n, []string{os.Args[0]}, append(os.Environ(), "DISTRIB_STDIO_WORKER=1"))
	if err != nil {
		t.Fatalf("spawn workers: %v", err)
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Kill()
			p.Close()
		}
	})
	return procs
}

func transports(procs []*Proc) []Transport {
	ts := make([]Transport, len(procs))
	for i, p := range procs {
		ts[i] = p
	}
	return ts
}

// quickSpecs is the differential suite: every substrate (chain, dag,
// sync), sweeps over numeric and string axes, mean and rate metrics
// (NaN-bearing decide-time included), heterogeneous rates, a sparse
// topology, and a windowed run.
func quickSpecs() []scenario.Spec {
	return []scenario.Spec{
		{Name: "dag-private", Protocol: scenario.Dag, N: 10, T: 4, Lambda: 1, K: 21,
			Attack: "private-chain", Trials: 10, Seed: 1,
			Metrics: []string{"ok", "validity", "decide-time", "byz-prefix-share"},
			Sweep:   []scenario.Axis{{Name: "lambda", Values: []scenario.Value{{Num: 0.5}, {Num: 1}}}}},
		{Name: "chain-tiebreak", Protocol: scenario.Chain, N: 8, T: 3, Lambda: 0.5, K: 15,
			Attack: "tiebreak", Trials: 9, Seed: 7,
			Sweep: []scenario.Axis{{Name: "tiebreak", Values: []scenario.Value{
				{Str: "random", IsStr: true}, {Str: "adversarial", IsStr: true}}}}},
		{Name: "sync-rounds", Protocol: scenario.Sync, N: 7, T: 2, Trials: 8, Seed: 3,
			Inputs:  "split:3",
			Metrics: []string{"ok", "agreement", "duration"}},
		{Name: "dag-topology", Protocol: scenario.Dag, N: 10, T: 4, Lambda: 1, K: 21,
			Attack: "private-chain", Topology: "ring", TopologyParams: map[string]float64{"k": 2},
			LinkDelay: 0.1, Trials: 6, Seed: 11,
			Metrics: []string{"ok", "validity", "vis-lag"}},
		{Name: "chain-windowed", Protocol: scenario.Chain, N: 10, T: 3, Lambda: 1, K: 21,
			Attack: "flip", Window: 30, Trials: 6, Seed: 5,
			Metrics: []string{"ok", "decide-time", "mem-high-water"}},
	}
}

// mustRunLocal executes the spec on the in-process executor.
func mustRunLocal(t *testing.T, spec scenario.Spec) *scenario.SweepResult {
	t.Helper()
	res, err := scenario.RunSpec(spec, scenario.Options{})
	if err != nil {
		t.Fatalf("local run %s: %v", spec.Name, err)
	}
	return res
}

// assertSameResult pins distributed output to the single-process run:
// reflect.DeepEqual over the full SweepResult covers every float bit (the
// rendered tables and JSON are pure functions of this structure).
func assertSameResult(t *testing.T, spec scenario.Spec, local, dist *scenario.SweepResult) {
	t.Helper()
	if !reflect.DeepEqual(local, dist) {
		t.Fatalf("spec %s: distributed result differs from single-process run\nlocal: %+v\ndist:  %+v",
			spec.Name, local, dist)
	}
}

// mustCache returns a fresh in-memory result cache.
func mustCache(t *testing.T) *Cache {
	t.Helper()
	c, err := NewCache("", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// Loopback (in-process goroutine workers over synchronous pipes): the
// full quick suite must merge byte-identically at several worker counts
// and chunk sizes. Without workers or a cache, Run is RunSpec itself and
// plans no lease.
func TestLoopbackMatchesLocal(t *testing.T) {
	for _, spec := range quickSpecs() {
		local := mustRunLocal(t, spec)
		for _, cfg := range []Config{
			{Workers: []Transport{Loopback()}, ChunkSize: 4},
			{Workers: []Transport{Loopback(), Loopback(), Loopback()}, ChunkSize: 3},
			{Cache: mustCache(t), ChunkSize: 5}, // no workers: inline leases
		} {
			dist, stats, err := Run(spec, cfg)
			if err != nil {
				t.Fatalf("spec %s: %v", spec.Name, err)
			}
			assertSameResult(t, spec, local, dist)
			if stats.Leases == 0 || stats.Points != len(dist.Points) {
				t.Fatalf("spec %s: implausible stats %+v", spec.Name, stats)
			}
			for _, w := range cfg.Workers {
				w.Close()
			}
		}
		dist, stats, err := Run(spec, Config{InlineWorkers: 1})
		if err != nil {
			t.Fatalf("spec %s: %v", spec.Name, err)
		}
		assertSameResult(t, spec, local, dist)
		if want := (Stats{Points: len(local.Points)}); *stats != want {
			t.Fatalf("spec %s: fleet-less run stats %+v, want %+v", spec.Name, *stats, want)
		}
	}
}

// One fleet serves many Runs, as amsearch's candidates share one
// -distribute fleet: a Run leaves the worker sessions open, so the second
// Run dispatches every lease to the same workers without losing one.
func TestFleetServesConsecutiveRuns(t *testing.T) {
	workers := []Transport{Loopback(), Loopback()}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	cfg := Config{Workers: workers, ChunkSize: 3, LeaseTimeout: 10 * time.Second}
	for i, spec := range quickSpecs()[:2] {
		local := mustRunLocal(t, spec)
		dist, stats, err := Run(spec, cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		assertSameResult(t, spec, local, dist)
		if stats.LostWorker != 0 || stats.Inline != 0 || stats.Dispatched != stats.Leases {
			t.Fatalf("run %d: the fleet did not serve every lease: %+v", i, stats)
		}
	}
}

// Deterministic lease failures (here: a metric invalid for the bound
// protocol at extraction... impossible post-Bind, so use a worker-side
// panic) must abort with the lease identified, not retry forever.
func TestWorkerErrorAborts(t *testing.T) {
	// An order metric with window > 0 fails at MetricExtractors — but the
	// coordinator pre-binds and would catch it locally. Exercise the wire
	// path instead: a spec whose trial panics on the worker. No registry
	// scenario panics by construction, so fake it at the transport level.
	ft := newScriptedTransport()
	ft.script = func(m *Msg) *Msg {
		if m.Type == msgLease {
			return &Msg{Type: msgError, ID: m.ID, Err: "synthetic trial panic"}
		}
		return nil
	}
	spec := scenario.Spec{Protocol: scenario.Dag, N: 6, T: 0, Lambda: 1, K: 9, Trials: 4, Seed: 1}
	_, _, err := Run(spec, Config{Workers: []Transport{ft}, ChunkSize: 2})
	if err == nil {
		t.Fatalf("worker error did not abort the run")
	}
}

// scriptedTransport fakes a worker for failure-path tests.
type scriptedTransport struct {
	script func(*Msg) *Msg // reply per received message; nil = no reply
	inbox  chan *Msg
	closed chan struct{}
}

func newScriptedTransport() *scriptedTransport {
	return &scriptedTransport{inbox: make(chan *Msg, 16), closed: make(chan struct{})}
}

func (s *scriptedTransport) Send(m *Msg) error {
	if reply := s.script(m); reply != nil {
		s.inbox <- reply
	}
	return nil
}

func (s *scriptedTransport) Recv(m *Msg) error {
	select {
	case r := <-s.inbox:
		*m = *r
		return nil
	case <-s.closed:
		return fmt.Errorf("closed")
	}
}

func (s *scriptedTransport) Close() error {
	select {
	case <-s.closed:
	default:
		close(s.closed)
	}
	return nil
}

// A worker that accepts leases but never answers must be timed out and
// its lease reassigned — output unchanged, retries counted.
func TestLeaseTimeoutReassigns(t *testing.T) {
	spec := scenario.Spec{Name: "timeout", Protocol: scenario.Dag, N: 8, T: 2, Lambda: 1, K: 15,
		Attack: "private-chain", Trials: 8, Seed: 2}
	local := mustRunLocal(t, spec)

	stuck := newScriptedTransport()
	stuck.script = func(m *Msg) *Msg { return nil } // swallow every lease
	good := Loopback()
	defer good.Close()

	dist, stats, err := Run(spec, Config{
		Workers:      []Transport{stuck, good},
		ChunkSize:    2,
		LeaseTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, dist)
	if stats.LostWorker == 0 {
		t.Fatalf("stuck worker was never declared lost: %+v", stats)
	}
	if stats.Retries == 0 {
		t.Fatalf("timed-out lease was not reassigned: %+v", stats)
	}
}

// A worker reply of the wrong shape retires that worker as lost: its lease
// is requeued (here it runs inline, the only worker being gone) and the
// reply is never cached.
func TestMalformedWorkerReplyIsLost(t *testing.T) {
	spec := scenario.Spec{Name: "malformed-reply", Protocol: scenario.Dag, N: 8, T: 2, Lambda: 1, K: 15,
		Attack: "private-chain", Trials: 12, Seed: 5}
	local := mustRunLocal(t, spec)
	for _, tc := range malformedVals {
		t.Run(tc.name, func(t *testing.T) {
			bad := newScriptedTransport()
			bad.script = func(m *Msg) *Msg {
				if m.Type != msgLease {
					return nil
				}
				return &Msg{Type: msgResult, ID: m.ID, Vals: tc.vals}
			}
			cache := mustCache(t)
			res, stats, err := Run(spec, Config{Workers: []Transport{bad}, Cache: cache, ChunkSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, spec, local, res)
			if stats.LostWorker != 1 || stats.Retries != 1 || stats.Inline != stats.Leases {
				t.Fatalf("malformed reply did not retire the worker: %+v", stats)
			}
			// Every cached entry is a well-formed inline result: a
			// cache-only rerun is served whole and still matches.
			res, stats, err = Run(spec, Config{Cache: cache, ChunkSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, spec, local, res)
			if stats.FromCache != stats.Leases {
				t.Fatalf("cache-only rerun not fully served: %+v", stats)
			}
		})
	}
}

// When every worker is lost, the coordinator finishes inline — the run
// degrades to single-process, it does not fail.
func TestAllWorkersLostFallsBackInline(t *testing.T) {
	spec := scenario.Spec{Name: "fallback", Protocol: scenario.Chain, N: 8, T: 2, Lambda: 1, K: 15,
		Trials: 6, Seed: 4}
	local := mustRunLocal(t, spec)
	stuck := newScriptedTransport()
	stuck.script = func(m *Msg) *Msg { return nil }
	dist, stats, err := Run(spec, Config{
		Workers: []Transport{stuck}, ChunkSize: 2, LeaseTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, dist)
	if stats.Inline == 0 || stats.LostWorker != 1 {
		t.Fatalf("expected inline fallback after losing the only worker: %+v", stats)
	}
}

// Checkpointed sweeps cannot cross process boundaries and must be
// rejected eagerly wherever leases are planned; without a fleet or a cache
// they are RunSpec's.
func TestCheckpointRejected(t *testing.T) {
	spec := scenario.Spec{Protocol: scenario.Chain, N: 8, T: 2, Lambda: 1, K: 15,
		Checkpoint: true, Trials: 4}
	w := Loopback()
	defer w.Close()
	for _, cfg := range []Config{{Cache: mustCache(t)}, {Workers: []Transport{w}}} {
		if _, _, err := Run(spec, cfg); err == nil {
			t.Fatalf("checkpointed spec accepted with leases (%+v)", cfg)
		}
	}
	res, _, err := Run(spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, mustRunLocal(t, spec), res)
}

// Bind errors must surface before any lease is dispatched, with the same
// message the in-process executor produces.
func TestBindErrorsMatchLocal(t *testing.T) {
	spec := scenario.Spec{Protocol: "nonesuch", N: 8, Trials: 2}
	_, localErr := scenario.RunSpec(spec, scenario.Options{})
	_, _, distErr := Run(spec, Config{})
	if localErr == nil || distErr == nil {
		t.Fatalf("invalid spec accepted: local=%v dist=%v", localErr, distErr)
	}
	if localErr.Error() != distErr.Error() {
		t.Fatalf("error text diverged:\nlocal: %v\ndist:  %v", localErr, distErr)
	}
}

// Duplicate sweep axes are rejected on the distributed path too.
func TestDuplicateAxisRejected(t *testing.T) {
	spec := scenario.Spec{Protocol: scenario.Dag, N: 8, Lambda: 1, K: 15, Sweep: []scenario.Axis{
		{Name: "lambda", Values: []scenario.Value{{Num: 0.5}}},
		{Name: "lambda", Values: []scenario.Value{{Num: 1}}},
	}}
	if _, _, err := Run(spec, Config{}); err == nil {
		t.Fatalf("duplicate sweep axis accepted")
	}
}

// Chunks are fixed (DefaultChunkSize when unset), so every lease key is
// reproducible: a warm rerun is served entirely from cache.
func TestAdaptiveDisabledWithCache(t *testing.T) {
	spec := scenario.Spec{Name: "adaptive-cache", Protocol: scenario.Chain, N: 8, T: 2, Lambda: 1, K: 15,
		Trials: 40, Seed: 9}
	cache := mustCache(t)
	cold, stats, err := Run(spec, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromCache != 0 {
		t.Fatalf("cold run served from cache: %+v", stats)
	}
	warm, stats, err := Run(spec, Config{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FromCache != stats.Leases {
		t.Fatalf("warm run not fully cache-served: %+v", stats)
	}
	assertSameResult(t, spec, cold, warm)
}

// LeaseKey ignores the spec's total trial count and display name: a
// budget escalation reuses its low-budget chunks.
func TestLeaseKeyIgnoresTrialsAndName(t *testing.T) {
	a := scenario.Spec{Name: "a", Protocol: scenario.Chain, N: 8, T: 2, Lambda: 1, K: 15, Trials: 16}
	b := a
	b.Name, b.Doc, b.Trials = "b", "other doc", 64
	if LeaseKey(a, 1, 0, 16) != LeaseKey(b, 1, 0, 16) {
		t.Fatal("lease key depends on trials/name/doc")
	}
	c := a
	c.Lambda = 2
	if LeaseKey(a, 1, 0, 16) == LeaseKey(c, 1, 0, 16) {
		t.Fatal("lease key ignores a simulation parameter")
	}
}
