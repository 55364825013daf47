package scenario

import (
	"testing"

	"repro/internal/agreement"
)

// countingRule exposes a bound rule's run rule and records how many blocks
// the trial's shared index ingested, read when the run releases it.
type countingRule struct {
	agreement.HonestRule
	indexed int
}

// NewRunRule implements agreement.PerRunState.
func (c *countingRule) NewRunRule() agreement.RunRule {
	return countedRun{c.HonestRule.(agreement.PerRunState).NewRunRule(), &c.indexed}
}

type countedRun struct {
	agreement.RunRule
	indexed *int
}

func (c countedRun) Release() {
	*c.indexed = c.RunRule.(interface{ Indexed() int }).Indexed()
	c.RunRule.Release()
}

// indexedPerTrial runs trials seeds of spec with a counting rule and
// returns, per trial, the blocks the shared index ingested and the
// memory's final length.
func indexedPerTrial(t *testing.T, spec Spec, trials int) (indexed, appended []int) {
	t.Helper()
	b := MustBind(spec)
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		rule := &countingRule{HonestRule: b.Rule()}
		res := agreement.MustRun(b.randomizedConfig(seed, nil), rule, b.NewAdversary())
		if !res.Verdict.Termination {
			t.Fatalf("seed %d: the run did not terminate", seed)
		}
		indexed, appended = append(indexed, rule.indexed), append(appended, res.Mem.Len())
	}
	return indexed, appended
}

// TestChainForkIndexesEachBlockOnce pins the chain's shared index on the
// chain-fork benchmark spec (Theorem 5.3's regime: adversarial tie-breaks
// under a fork attack): the trial's one index ingests every block of the
// memory exactly once, where 2n+1 private indexes ingested each block
// about 38 times.
func TestChainForkIndexesEachBlockOnce(t *testing.T) {
	spec := Spec{Protocol: Chain, N: 32, T: 11, Lambda: 0.5, K: 41,
		TieBreak: TieAdversarial, Attack: AttackFork}
	indexed, appended := indexedPerTrial(t, spec, 20)
	for i := range indexed {
		if indexed[i] != appended[i] {
			t.Fatalf("trial %d: the chain index ingested %d blocks for a %d-block memory", i, indexed[i], appended[i])
		}
	}
}

// TestDagPrivateIndexBound bounds the DAG's shared-index work on the
// dag-private benchmark spec (E8's regime: a pivot-extending private
// chain). The index ingests blocks in arrival order, and a prefix build
// adds the blocks of an index for a stale view size. In the default
// timing model a node appends on the view it last decided on, whose
// parents the decision memoized, so no prefix build happens and the
// trial's ingests stay within its memory's length.
func TestDagPrivateIndexBound(t *testing.T) {
	spec := Spec{Protocol: Dag, N: 32, T: 10, Lambda: 1, K: 81, Confirm: 4,
		Pivot: PivotGhost, Attack: AttackPrivateChain}
	indexed, appended := indexedPerTrial(t, spec, 20)
	sumIdx, sumApp := 0, 0
	for i := range indexed {
		sumIdx += indexed[i]
		sumApp += appended[i]
		if indexed[i] > appended[i] {
			t.Fatalf("trial %d: the DAG indexes ingested %d blocks for a %d-block memory", i, indexed[i], appended[i])
		}
	}
	t.Logf("dag-private: %d blocks ingested for %d appended over %d trials (%.2f per block)",
		sumIdx, sumApp, len(indexed), float64(sumIdx)/float64(sumApp))
}
