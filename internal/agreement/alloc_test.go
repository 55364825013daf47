package agreement_test

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/chain"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestRunAllocs bounds the allocations of one warm trial of the harness,
// for the chain and the DAG rule against a value-flipping adversary on its
// default path (no topology, window, stall, async delay, checkpoint or
// trace), and for the DAG rule flooding over a small-world topology. The
// counts cover the whole trial: the memory, the correct nodes' shared
// index (pooled, so warm trials reuse its storage), the adversary's own
// index, the visibility state and the Result. A harness change that adds
// per-trial or per-event allocations fails here before it shows in a
// sweep.
func TestRunAllocs(t *testing.T) {
	base := agreement.RandomizedConfig{N: 9, T: 3, Lambda: 0.5, K: 41, Crashes: 1, Seed: 5}
	gossip := agreement.RandomizedConfig{N: 32, T: 0, Lambda: 0.2, K: 21, Seed: 5,
		Topology:      topology.WattsStrogatz(xrand.New(3, 7), 32, 3, 0.2, 0.1),
		TopologyDelay: topology.DelayModel{Kind: topology.DelayUniform}}
	for _, c := range []struct {
		name string
		cfg  agreement.RandomizedConfig
		rule agreement.HonestRule
		max  float64
	}{
		{"chain", base, chainba.Rule{TB: chain.FirstTieBreaker{}}, 107},
		{"dag", base, dagba.Rule{Pivot: dagba.Ghost}, 225},
		{"dag-smallworld", gossip, dagba.Rule{Pivot: dagba.Ghost}, 190},
	} {
		t.Run(c.name, func(t *testing.T) {
			trial := func() { agreement.MustRun(c.cfg, c.rule, &agreement.ValueFlip{Rule: c.rule}) }
			trial() // warm the pooled harness state
			allocs := testing.AllocsPerRun(20, trial)
			t.Logf("%s: %.0f allocs per trial", c.name, allocs)
			if allocs > c.max {
				t.Fatalf("%s trial allocated %.0f times, want <= %.0f", c.name, allocs, c.max)
			}
		})
	}
}
