package distrib

import (
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// Real worker processes (this test binary re-exec'd in stdio-worker mode,
// see TestMain) over the full quick suite: the distributed result must be
// identical to the in-process run.
func TestProcessWorkersMatchLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	for _, spec := range quickSpecs() {
		// One worker fleet per run, exactly as amrun does.
		procs := spawnProcWorkers(t, 3)
		local := mustRunLocal(t, spec)
		dist, stats, err := Run(spec, Config{Workers: transports(procs), ChunkSize: 3})
		if err != nil {
			t.Fatalf("spec %s: %v", spec.Name, err)
		}
		assertSameResult(t, spec, local, dist)
		if stats.Dispatched == 0 {
			t.Fatalf("spec %s: nothing dispatched to the workers: %+v", spec.Name, stats)
		}
		if stats.LostWorker != 0 {
			t.Fatalf("spec %s: healthy workers reported lost: %+v", spec.Name, stats)
		}
	}
}

// killOnLease is a worker process that is killed the moment the
// coordinator has handed it its first lease, so the loss lands mid-sweep
// with work in flight however fast the trials run (a fixed sleep before
// the kill let a fast sweep finish first).
type killOnLease struct {
	*Proc
	once sync.Once
}

// Send implements Transport.
func (k *killOnLease) Send(m *Msg) error {
	err := k.Proc.Send(m)
	if m.Type == msgLease {
		k.once.Do(func() { k.Proc.Kill() })
	}
	return err
}

// Kill one worker mid-sweep: the run must finish with byte-identical
// output — a lost worker changes wall clock, never results.
func TestKilledWorkerDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := scenario.Spec{Name: "killed", Protocol: scenario.Dag, N: 12, T: 5, Lambda: 1, K: 31,
		Attack: "private-chain", Trials: 48, Seed: 9,
		Metrics: []string{"ok", "validity", "decide-time", "byz-prefix-share"},
		Sweep:   []scenario.Axis{{Name: "lambda", Values: []scenario.Value{{Num: 0.5}, {Num: 1}, {Num: 2}}}}}
	local := mustRunLocal(t, spec)

	procs := spawnProcWorkers(t, 3)
	workers := transports(procs)
	workers[0] = &killOnLease{Proc: procs[0]}

	dist, stats, err := Run(spec, Config{
		Workers:      workers,
		ChunkSize:    4,
		LeaseTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, dist)
	// The victim may in rare schedules answer its lease before the kill
	// lands and die between leases, but it must at least be noticed.
	if stats.LostWorker == 0 {
		t.Fatalf("killed worker was never declared lost: %+v", stats)
	}
	t.Logf("kill run stats: %+v", stats)
}

// Warm-cache re-run: after one complete distributed run into a cache
// directory, a second run must serve >= 90%% of its leases from cache
// (here: all of them) and still match the local run.
func TestWarmCacheRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	spec := scenario.Spec{Name: "warm", Protocol: scenario.Chain, N: 10, T: 3, Lambda: 1, K: 21,
		Attack: "tiebreak", Trials: 24, Seed: 12,
		Sweep: []scenario.Axis{{Name: "lambda", Values: []scenario.Value{{Num: 0.5}, {Num: 1}}}}}
	local := mustRunLocal(t, spec)
	dir := t.TempDir()

	procs := spawnProcWorkers(t, 2)
	cold, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, _, err := Run(spec, Config{Workers: transports(procs), Cache: cold, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, r1)

	warm, err := NewCache(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	procs2 := spawnProcWorkers(t, 2)
	r2, s2, err := Run(spec, Config{Workers: transports(procs2), Cache: warm, ChunkSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, spec, local, r2)
	if s2.Leases == 0 || s2.FromCache*10 < s2.Leases*9 {
		t.Fatalf("warm re-run served %d/%d leases from cache, want >= 90%%", s2.FromCache, s2.Leases)
	}
}
