package backbone

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/scenario"
)

// orderOf is the canonical order oracle of a chain or DAG spec: first-tip
// tie-breaking for the chain, the GHOST pivot for the DAG.
func orderOf(t *testing.T, p scenario.Protocol) func(*appendmem.Memory, []int) [][]appendmem.MsgID {
	t.Helper()
	order, err := scenario.MustBind(scenario.Spec{Protocol: p, N: 4, Lambda: 1, K: 1}).OrderFunc()
	if err != nil {
		t.Fatal(err)
	}
	return order
}

func chainRun(t *testing.T, n, tt int, lambda float64, k int, adv agreement.Adversary) *agreement.Result {
	t.Helper()
	r, err := agreement.RunRandomized(agreement.RandomizedConfig{
		N: n, T: tt, Lambda: lambda, K: k, Seed: 5,
	}, chainba.Rule{TB: chain.RandomTieBreaker{}}, adv)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestChopDepth(t *testing.T) {
	a := []appendmem.MsgID{1, 2, 3, 4}
	for _, tc := range []struct {
		b    []appendmem.MsgID
		want int
	}{
		{[]appendmem.MsgID{1, 2, 3, 4}, 0},
		{[]appendmem.MsgID{1, 2}, 0},       // prefix: nothing to chop
		{[]appendmem.MsgID{1, 2, 9}, 1},    // diverges at third
		{[]appendmem.MsgID{9, 9, 9, 9}, 4}, // nothing shared
		{nil, 0},
	} {
		if got := chopDepth(a, tc.b); got != tc.want {
			t.Errorf("chopDepth(%v, %v) = %d, want %d", a, tc.b, got, tc.want)
		}
	}
}

func TestHonestChainBackbone(t *testing.T) {
	r := chainRun(t, 8, 0, 0.2, 21, agreement.Silent{})
	rep := Analyze(r, 21, orderOf(t, scenario.Chain))
	if rep.Quality != 1.0 {
		t.Fatalf("quality = %v with no Byzantine nodes", rep.Quality)
	}
	if rep.Growth <= 0 {
		t.Fatalf("growth = %v", rep.Growth)
	}
	if rep.CommonPrefixViolation != 0 {
		t.Fatalf("common-prefix violation %d without an adversary at low rate", rep.CommonPrefixViolation)
	}
	// Chain growth is bounded by the aggregate append rate nλ per Δ.
	if rep.Growth > 8*0.2*1.5 {
		t.Fatalf("growth %v exceeds the token rate", rep.Growth)
	}
}

func TestQualityDegradesUnderAttack(t *testing.T) {
	silent := Analyze(chainRun(t, 10, 4, 1, 21, agreement.Silent{}), 21, orderOf(t, scenario.Chain))
	attacked := Analyze(chainRun(t, 10, 4, 1, 21, &adversary.ChainAttack{P: adversary.TieBreak}), 21, orderOf(t, scenario.Chain))
	if attacked.Quality >= silent.Quality {
		t.Fatalf("quality did not degrade: %v -> %v", silent.Quality, attacked.Quality)
	}
	if attacked.Quality > 0.6 {
		t.Fatalf("tie-break attack left quality at %v; expected collapse", attacked.Quality)
	}
}

func TestDagQualityResists(t *testing.T) {
	r, err := agreement.RunRandomized(agreement.RandomizedConfig{
		N: 10, T: 4, Lambda: 1, K: 81, Seed: 5,
	}, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost})
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(r, 81, orderOf(t, scenario.Dag))
	// The DAG cannot be pushed far below the honest token share.
	if rep.Quality < 0.5 {
		t.Fatalf("dag quality = %v under private-chain attack", rep.Quality)
	}
	// The DAG wastes almost nothing (inclusive structure).
	if rep.Wasted > 0.2 {
		t.Fatalf("dag wasted fraction = %v", rep.Wasted)
	}
}

func TestChainWastesUnderForks(t *testing.T) {
	attacked := Analyze(chainRun(t, 10, 4, 1, 21, &adversary.ChainAttack{P: adversary.TieBreak}), 21, orderOf(t, scenario.Chain))
	if attacked.Wasted < 0.2 {
		t.Fatalf("high-rate attacked chain wasted only %v", attacked.Wasted)
	}
}

func TestHonestShare(t *testing.T) {
	r := chainRun(t, 10, 5, 0.5, 15, &agreement.ValueFlip{Rule: chainba.Rule{TB: chain.RandomTieBreaker{}}})
	share := HonestShare(r)
	if share < 0.3 || share > 0.7 {
		t.Fatalf("honest share = %v, want near 0.5 for t=n/2", share)
	}
}

func TestQualityImpliesValidityCrossCheck(t *testing.T) {
	// Over a batch of runs, the quality>1/2 <-> validity correspondence
	// should hold for the vast majority (small slack for nodes deciding on
	// different prefixes).
	agreeing := 0
	const trials = 20
	for seed := uint64(0); seed < trials; seed++ {
		r, err := agreement.RunRandomized(agreement.RandomizedConfig{
			N: 10, T: 4, Lambda: 0.25, K: 21, Seed: seed,
		}, chainba.Rule{TB: chain.RandomTieBreaker{}}, &adversary.ChainAttack{P: adversary.TieBreak})
		if err != nil {
			t.Fatal(err)
		}
		if QualityImpliesValidity(Analyze(r, 21, orderOf(t, scenario.Chain)), r.Verdict) {
			agreeing++
		}
	}
	if agreeing < trials*3/4 {
		t.Fatalf("quality/validity correspondence held only %d/%d", agreeing, trials)
	}
}

func TestCommonPrefixViolationDetectable(t *testing.T) {
	// Under heavy forking, different nodes can decide on diverging
	// prefixes; the analyzer must be able to report a nonzero violation
	// somewhere in a batch. (Agreement failures in E6-style runs are rare
	// but the violation metric is softer: any divergence counts.)
	found := false
	for seed := uint64(0); seed < 30 && !found; seed++ {
		r, err := agreement.RunRandomized(agreement.RandomizedConfig{
			N: 10, T: 4, Lambda: 2, K: 15, Seed: seed,
		}, chainba.Rule{TB: chain.RandomTieBreaker{}}, &adversary.ChainAttack{P: adversary.TieBreak})
		if err != nil {
			t.Fatal(err)
		}
		if Analyze(r, 15, orderOf(t, scenario.Chain)).CommonPrefixViolation > 0 {
			found = true
		}
	}
	if !found {
		t.Log("no common-prefix divergence in 30 hostile runs (metric may be conservative)")
	}
}
