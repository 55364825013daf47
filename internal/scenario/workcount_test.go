package scenario

import (
	"testing"

	"repro/internal/agreement"
)

// countingRule exposes a bound rule's run rule and records how many blocks
// the trial's shared index ingested and, for the DAG, how many ids its
// linearizations placed, read when the run releases it, and — on a
// windowed run — how often the harness compacted it.
type countingRule struct {
	agreement.HonestRule
	indexed, ordered, compacts int
}

// NewRunRule implements agreement.PerRunState.
func (c *countingRule) NewRunRule() agreement.RunRule {
	return countedRun{c.HonestRule.(agreement.PerRunState).NewRunRule(), c}
}

// NewWindowedRunRule implements agreement.WindowedRunState.
func (c *countingRule) NewWindowedRunRule() agreement.WindowedRunRule {
	return countedWindowedRun{c.HonestRule.(agreement.WindowedRunState).NewWindowedRunRule(), c}
}

type countedRun struct {
	agreement.RunRule
	c *countingRule
}

func (r countedRun) Release() {
	r.c.indexed = r.RunRule.(interface{ Indexed() int }).Indexed()
	if o, ok := r.RunRule.(interface{ Ordered() int }); ok {
		r.c.ordered = o.Ordered()
	}
	r.RunRule.Release()
}

type countedWindowedRun struct {
	agreement.WindowedRunRule
	c *countingRule
}

func (r countedWindowedRun) CompactTo(w int) int {
	r.c.compacts++
	return r.WindowedRunRule.CompactTo(w)
}

func (r countedWindowedRun) Release() { countedRun{r.WindowedRunRule, r.c}.Release() }

// retirements counts the harness's memory retirements: each one compacts
// the windowed adversary before it retires the memory.
type retirements struct {
	agreement.Adversary
	n int
}

func (a *retirements) ViewFloor() int { return a.Adversary.(agreement.WindowedAdversary).ViewFloor() }

func (a *retirements) CompactTo(w int) {
	a.n++
	a.Adversary.(agreement.WindowedAdversary).CompactTo(w)
}

// trialCounts is what one counted trial's shared index did, beside the
// memory's final length.
type trialCounts struct {
	indexed, ordered, appended int
}

// countPerTrial runs trials seeds of spec with a counting rule and
// returns each trial's counts.
func countPerTrial(t *testing.T, spec Spec, trials int) []trialCounts {
	t.Helper()
	b := MustBind(spec)
	var out []trialCounts
	for seed := uint64(1); seed <= uint64(trials); seed++ {
		rule := &countingRule{HonestRule: b.Rule()}
		res := agreement.MustRun(b.randomizedConfig(seed, nil), rule, b.NewAdversary())
		if !res.Verdict.Termination {
			t.Fatalf("seed %d: the run did not terminate", seed)
		}
		out = append(out, trialCounts{rule.indexed, rule.ordered, res.Mem.Len()})
	}
	return out
}

// dagPrivate is the dag-private benchmark spec (E8's regime: a
// pivot-extending private chain).
var dagPrivate = Spec{Protocol: Dag, N: 32, T: 10, Lambda: 1, K: 81, Confirm: 4,
	Pivot: PivotGhost, Attack: AttackPrivateChain}

// TestChainForkIndexesEachBlockOnce pins the chain's shared index on the
// chain-fork benchmark spec (Theorem 5.3's regime: adversarial tie-breaks
// under a fork attack): the trial's one index ingests every block of the
// memory exactly once, where 2n+1 private indexes ingested each block
// about 38 times.
func TestChainForkIndexesEachBlockOnce(t *testing.T) {
	spec := Spec{Protocol: Chain, N: 32, T: 11, Lambda: 0.5, K: 41,
		TieBreak: TieAdversarial, Attack: AttackFork}
	for i, c := range countPerTrial(t, spec, 20) {
		if c.indexed != c.appended {
			t.Fatalf("trial %d: the chain index ingested %d blocks for a %d-block memory", i, c.indexed, c.appended)
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
	counts := countPerTrial(t, dagPrivate, 20)
	sumIdx, sumApp := 0, 0
	for i, c := range counts {
		sumIdx += c.indexed
		sumApp += c.appended
		if c.indexed > c.appended {
			t.Fatalf("trial %d: the DAG indexes ingested %d blocks for a %d-block memory", i, c.indexed, c.appended)
		}
	}
	t.Logf("dag-private: %d blocks ingested for %d appended over %d trials (%.2f per block)",
		sumIdx, sumApp, len(counts), float64(sumIdx)/float64(sumApp))
}

// TestDagPrivateOrderBound bounds the DAG's ordering work on the
// dag-private spec. Each decision size orders the first k+confirm values
// along the GHOST pivot, and the index re-orders only the epochs after
// the pivot prefix it shares with the previous decision's, so a trial
// places at most as many ids as its memory holds blocks (0.81 per block
// over these seeds, 0.87 at most). Ordering every size from scratch
// placed about 21 per block.
func TestDagPrivateOrderBound(t *testing.T) {
	counts := countPerTrial(t, dagPrivate, 20)
	sumOrd, sumApp, worst := 0, 0, 0.0
	for i, c := range counts {
		sumOrd += c.ordered
		sumApp += c.appended
		worst = max(worst, float64(c.ordered)/float64(c.appended))
		if c.ordered > c.appended {
			t.Fatalf("trial %d: the DAG indexes ordered %d ids for a %d-block memory", i, c.ordered, c.appended)
		}
	}
	t.Logf("dag-private: %d ids ordered for %d appended over %d trials (%.2f per block, at most %.2f in a trial)",
		sumOrd, sumApp, len(counts), float64(sumOrd)/float64(sumApp), worst)
}

// TestLongHorizonIndexesEachBlockOnce pins the windowed chain's shared
// index on the long-horizon benchmark spec (k=401 behind a 480-message
// window, value flips): the trial's one index ingests every block of the
// memory exactly once and compacts once per memory retirement, at most
// once per Δ tick, where 2n+1 private indexes each compacted every tick.
func TestLongHorizonIndexesEachBlockOnce(t *testing.T) {
	spec := Spec{Protocol: Chain, N: 10, T: 3, Lambda: 1, K: 401, Attack: AttackFlip, Window: 480}
	b := MustBind(spec)
	indexed, compacts, ticks := 0, 0, 0
	for seed := uint64(1); seed <= 8; seed++ {
		rule := &countingRule{HonestRule: b.Rule()}
		adv := &retirements{Adversary: b.NewAdversary()}
		res := agreement.MustRun(b.randomizedConfig(seed, nil), rule, adv)
		if !res.Verdict.Termination {
			t.Fatalf("seed %d: the run did not terminate", seed)
		}
		if rule.indexed != res.Mem.Len() {
			t.Fatalf("seed %d: the chain index ingested %d blocks for a %d-block memory", seed, rule.indexed, res.Mem.Len())
		}
		tick := int(float64(res.Duration) / res.Cfg.Delta)
		if rule.compacts != adv.n || adv.n == 0 || adv.n > tick {
			t.Fatalf("seed %d: %d index compactions for %d retirements over %d ticks", seed, rule.compacts, adv.n, tick)
		}
		if res.MemHighWater >= res.TotalAppends {
			t.Fatalf("seed %d: nothing retired (high-water %d, appends %d)", seed, res.MemHighWater, res.TotalAppends)
		}
		indexed, compacts, ticks = indexed+rule.indexed, compacts+rule.compacts, ticks+tick
	}
	t.Logf("long-horizon: %d blocks ingested once each, %d compactions over %d ticks in 8 trials", indexed, compacts, ticks)
}
