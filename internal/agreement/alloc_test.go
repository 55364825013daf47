package agreement_test

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/chain"
)

// TestRunAllocs bounds the allocations of one warm trial of the harness on
// its default path (no topology, window, stall, async delay, checkpoint
// or trace), for the chain and the DAG rule against a value-flipping
// adversary. The counts cover the whole trial: the memory, the rules'
// indexes and the Result. A harness change that adds per-trial or
// per-event allocations fails here before it shows in a sweep.
func TestRunAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		rule agreement.HonestRule
		max  float64
	}{
		{"chain", chainba.Rule{TB: chain.FirstTieBreaker{}}, 1356},
		{"dag", dagba.Rule{Pivot: dagba.Ghost}, 520},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := agreement.RandomizedConfig{N: 9, T: 3, Lambda: 0.5, K: 41, Crashes: 1, Seed: 5}
			trial := func() { agreement.MustRun(cfg, c.rule, &agreement.ValueFlip{Rule: c.rule}) }
			trial() // warm the pooled harness state
			allocs := testing.AllocsPerRun(20, trial)
			t.Logf("%s: %.0f allocs per trial", c.name, allocs)
			if allocs > c.max {
				t.Fatalf("%s trial allocated %.0f times, want <= %.0f", c.name, allocs, c.max)
			}
		})
	}
}
