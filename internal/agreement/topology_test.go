package agreement

import (
	"fmt"
	"testing"

	"repro/internal/topology"
	"repro/internal/xrand"
)

func ringCfg(seed uint64, n int) RandomizedConfig {
	return RandomizedConfig{
		N: n, Lambda: 1, K: 15, Seed: seed,
		Topology:      topology.Ring(n, 1, 0.5),
		TopologyDelay: topology.DelayModel{Kind: topology.DelayUniform},
	}
}

// fingerprint reduces a Result to a comparable string covering everything
// downstream metrics read.
func fingerprint(r *Result) string {
	out := fmt.Sprintf("grants=%d appends=%d dur=%.12f lag=%.12f ok=%v;",
		r.Grants, r.TotalAppends, float64(r.Duration), r.VisMeanLag, r.Verdict.OK())
	for i := range r.DecideTime {
		out += fmt.Sprintf("%d:%.12f:%d;", i, float64(r.DecideTime[i]), r.DecideViewSize[i])
	}
	return out
}

func TestTopologyRunDeterministic(t *testing.T) {
	a := MustRun(ringCfg(7, 6), countRule{}, Silent{})
	b := MustRun(ringCfg(7, 6), countRule{}, Silent{})
	if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
		t.Fatalf("same seed diverged:\n%s\n%s", fa, fb)
	}
	if c := MustRun(ringCfg(8, 6), countRule{}, Silent{}); fingerprint(c) == fingerprint(a) {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestTopologyDelaysVisibility(t *testing.T) {
	// Propagation over a sparse ring means honest decisions lag behind
	// the global memory: the run completes, lag accounting is live, and
	// every correct node still terminates and agrees.
	r := MustRun(ringCfg(21, 8), countRule{}, Silent{})
	if !r.Verdict.OK() {
		t.Fatalf("verdict = %+v", r.Verdict)
	}
	if r.VisMeanLag <= 0 {
		t.Fatalf("VisMeanLag = %v, want > 0", r.VisMeanLag)
	}
}

func TestTopologyDefaultPathHasZeroLag(t *testing.T) {
	r := MustRun(RandomizedConfig{N: 6, Lambda: 1, K: 15, Seed: 7}, countRule{}, Silent{})
	if r.VisMeanLag != 0 {
		t.Fatalf("default path VisMeanLag = %v", r.VisMeanLag)
	}
}

func TestTopologyValidation(t *testing.T) {
	bad := []RandomizedConfig{
		// wrong node count
		{N: 5, Lambda: 1, K: 5, Topology: topology.Ring(6, 1, 1)},
		// disconnected
		{N: 4, Lambda: 1, K: 5, Topology: mustTable(4, []topology.Link{{From: 0, To: 1, Lat: 1}, {From: 2, To: 3, Lat: 1}})},
	}
	for i, cfg := range bad {
		if _, err := RunRandomized(cfg, countRule{}, Silent{}); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func mustTable(n int, links []topology.Link) *topology.Graph {
	g, err := topology.FromTable(n, links)
	if err != nil {
		panic(err)
	}
	return g
}

func TestTopologyWithAdversaryAndAsync(t *testing.T) {
	// The topology path must compose with the other knobs: an omniscient
	// flipping adversary and asynchronous honest appends.
	g := topology.WattsStrogatz(xrand.New(5, 5), 8, 2, 0.3, 0.25)
	cfg := RandomizedConfig{
		N: 8, T: 2, Lambda: 1, K: 15, Seed: 9,
		Topology:      g,
		TopologyDelay: topology.DelayModel{Kind: topology.DelayLongTail},
		AsyncDelayMax: 0.5,
	}
	a := MustRun(cfg, countRule{}, &ValueFlip{Rule: countRule{}})
	b := MustRun(cfg, countRule{}, &ValueFlip{Rule: countRule{}})
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("topology+adversary+async run not deterministic")
	}
	if a.TotalAppends == 0 || a.Grants == 0 {
		t.Fatalf("run did nothing: %+v", a)
	}
}

// TestTopologyPooledRunGrows runs topology trials of growing then
// shrinking N back to back, so the pooled run's visibility tracker is
// rebound to larger graphs than it last held, and holds each trial to the
// same trial run in the opposite order.
func TestTopologyPooledRunGrows(t *testing.T) {
	ns := []int{4, 5, 6, 7, 8, 9, 11, 12, 13, 17}
	up := make(map[int]string, len(ns))
	for _, n := range ns {
		up[n] = fingerprint(MustRun(ringCfg(3, n), countRule{}, Silent{}))
	}
	for i := len(ns) - 1; i >= 0; i-- {
		if got := fingerprint(MustRun(ringCfg(3, ns[i]), countRule{}, Silent{})); got != up[ns[i]] {
			t.Fatalf("n=%d: trial after a larger one diverged:\n%s\n%s", ns[i], got, up[ns[i]])
		}
	}
}
