package dagba_test

import (
	"slices"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/xrand"
)

func TestAppendReferencesAllTips(t *testing.T) {
	m := appendmem.New(4)
	g := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID})
	b := m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{g.ID})
	dagba.Rule{Pivot: dagba.Ghost}.Append(m.Read(), m.Writer(3), +1, nil)
	msg := m.Message(3)
	if len(msg.Parents) != 2 {
		t.Fatalf("parents = %v, want both tips", msg.Parents)
	}
	seen := map[appendmem.MsgID]bool{}
	for _, p := range msg.Parents {
		seen[p] = true
	}
	if !seen[a.ID] || !seen[b.ID] {
		t.Fatalf("parents = %v, want {%d,%d}", msg.Parents, a.ID, b.ID)
	}
}

func TestAppendSelectedParentIsPivotTip(t *testing.T) {
	// Build a DAG where GHOST's pivot tip is the heavier branch.
	m := appendmem.New(4)
	g := m.Writer(0).MustAppend(0, 0, nil)
	m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID}) // light branch
	b := m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{g.ID})
	heavy := m.Writer(2).MustAppend(3, 0, []appendmem.MsgID{b.ID})
	dagba.Rule{Pivot: dagba.Ghost}.Append(m.Read(), m.Writer(3), +1, nil)
	msg := m.Message(4)
	if msg.Parents[0] != heavy.ID {
		t.Fatalf("selected parent = %d, want pivot tip %d", msg.Parents[0], heavy.ID)
	}
}

func TestAppendOnEmptyView(t *testing.T) {
	m := appendmem.New(1)
	dagba.Rule{Pivot: dagba.Ghost}.Append(m.Read(), m.Writer(0), -1, nil)
	if m.Len() != 1 || len(m.Message(0).Parents) != 0 {
		t.Fatal("empty-view append malformed")
	}
}

func TestDecideNeedsKOrderedValues(t *testing.T) {
	m := appendmem.New(2)
	r := dagba.Rule{Pivot: dagba.Ghost}
	parent := []appendmem.MsgID(nil)
	for i := 0; i < 4; i++ {
		if _, ok := r.Decide(m.Read(), 5, nil); ok {
			t.Fatalf("decided with %d < 5 ordered values", i)
		}
		msg := m.Writer(0).MustAppend(+1, 0, parent)
		parent = []appendmem.MsgID{msg.ID}
	}
	m.Writer(0).MustAppend(+1, 0, parent)
	if v, ok := r.Decide(m.Read(), 5, nil); !ok || v != +1 {
		t.Fatalf("decide = (%d, %v)", v, ok)
	}
}

func TestForkedValuesAreIncluded(t *testing.T) {
	// The DAG's inclusive strategy: a forked (+1) value still counts.
	// g(+1), fork a(+1)/b(-1), then c referencing both with selected
	// parent a. Ordering: g, a, b, c — all four values included.
	m := appendmem.New(3)
	g := m.Writer(0).MustAppend(+1, 0, nil)
	a := m.Writer(1).MustAppend(+1, 0, []appendmem.MsgID{g.ID})
	b := m.Writer(2).MustAppend(-1, 0, []appendmem.MsgID{g.ID})
	m.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{a.ID, b.ID})
	r := dagba.Rule{Pivot: dagba.Ghost}
	order := r.Ordering(m.Read())
	if len(order) != 4 {
		t.Fatalf("ordering = %v, want all 4 blocks", order)
	}
	if order[2] != b.ID {
		t.Fatalf("forked block not included at epoch position: %v", order)
	}
	v, ok := r.Decide(m.Read(), 4, nil)
	if !ok || v != +1 {
		t.Fatalf("decide = (%d, %v)", v, ok)
	}
}

func TestPivotRuleString(t *testing.T) {
	if dagba.Ghost.String() != "ghost" || dagba.Longest.String() != "longest" {
		t.Fatal("dagba.PivotRule.String broken")
	}
}

func TestNoByzantineWorksBothPivots(t *testing.T) {
	for _, pivot := range []dagba.PivotRule{dagba.Ghost, dagba.Longest} {
		for seed := uint64(0); seed < 10; seed++ {
			r := agreement.MustRun(agreement.RandomizedConfig{
				N: 10, T: 0, Lambda: 0.5, K: 21, Seed: seed,
			}, dagba.Rule{Pivot: pivot}, agreement.Silent{})
			if !r.Verdict.OK() {
				t.Fatalf("pivot %v seed %d: %+v", pivot, seed, r.Verdict)
			}
		}
	}
}

// Theorem 5.6 headline: at parameters where the chain collapses
// (t/n = 0.4, λ(n−t) = 6), the DAG still satisfies validity in most runs.
func TestDagSurvivesWhereChainFails(t *testing.T) {
	const trials = 20
	chainFails, dagFails := 0, 0
	for seed := uint64(0); seed < trials; seed++ {
		cr := agreement.MustRun(agreement.RandomizedConfig{
			N: 10, T: 4, Lambda: 1, K: 41, Seed: seed,
		}, chainba.Rule{TB: chain.RandomTieBreaker{}}, &adversary.ChainAttack{P: adversary.TieBreak})
		if !cr.Verdict.Validity {
			chainFails++
		}
		dr := agreement.MustRun(agreement.RandomizedConfig{
			N: 10, T: 4, Lambda: 1, K: 41, Seed: seed,
		}, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost})
		if !dr.Verdict.Validity {
			dagFails++
		}
	}
	if chainFails < trials*3/4 {
		t.Fatalf("chain failed only %d/%d; attack miscalibrated", chainFails, trials)
	}
	if dagFails > trials/2 {
		t.Fatalf("dag failed %d/%d; should survive where chain fails", dagFails, trials)
	}
	if dagFails >= chainFails {
		t.Fatalf("dag (%d fails) not better than chain (%d fails)", dagFails, chainFails)
	}
}

// Theorem 5.6: DAG validity improves with k (the Lemma 5.5 insertion is
// bounded, so larger k dilutes it).
func TestDagValidityImprovesWithK(t *testing.T) {
	failures := func(k int) int {
		fails := 0
		for seed := uint64(0); seed < 20; seed++ {
			r := agreement.MustRun(agreement.RandomizedConfig{
				N: 10, T: 4, Lambda: 1, K: k, Seed: seed,
			}, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost})
			if !r.Verdict.Validity {
				fails++
			}
		}
		return fails
	}
	small, large := failures(11), failures(121)
	if large > small {
		t.Fatalf("failures at k=121 (%d) exceed k=11 (%d)", large, small)
	}
}

// λ-independence (Theorem 5.6): unlike the chain, DAG validity at fixed
// t/n stays high across a 20x range of λ.
func TestDagLambdaIndependence(t *testing.T) {
	failures := func(lam float64) int {
		fails := 0
		for seed := uint64(0); seed < 20; seed++ {
			r := agreement.MustRun(agreement.RandomizedConfig{
				N: 10, T: 4, Lambda: lam, K: 81, Seed: seed,
			}, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost})
			if !r.Verdict.Validity {
				fails++
			}
		}
		return fails
	}
	slow, fast := failures(0.05), failures(1.0)
	if slow > 4 || fast > 6 {
		t.Fatalf("dag validity failures: lam=0.05 -> %d/20, lam=1.0 -> %d/20", slow, fast)
	}
}

func TestDagPrivateChainInsertsByzantineRuns(t *testing.T) {
	// The private-chain preset (DagChainExtender) must produce consecutive
	// Byzantine runs in the ordering that exceed what honest interleaving
	// would give.
	r := agreement.MustRun(agreement.RandomizedConfig{
		N: 10, T: 4, Lambda: 1, K: 81, Seed: 7,
	}, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost})
	d := dag.Build(r.FinalView)
	order := d.Linearize(d.GhostPivot())
	if len(order) > 81 {
		order = order[:81]
	}
	maxRun, run := 0, 0
	for _, id := range order {
		if r.Roster.IsByzantine(r.FinalView.Message(id).Author) {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun < 2 {
		t.Fatalf("max Byzantine run = %d; private-chain insertion not visible", maxRun)
	}
}

func TestCrashNodesDoNotBlockDag(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := agreement.MustRun(agreement.RandomizedConfig{
			N: 8, Crashes: 3, Lambda: 0.5, K: 15, Seed: seed,
		}, dagba.Rule{Pivot: dagba.Ghost}, agreement.Silent{})
		if !r.Verdict.OK() {
			t.Fatalf("seed %d: %+v", seed, r.Verdict)
		}
	}
}

func TestConfirmDepthDelaysDagDecision(t *testing.T) {
	m := appendmem.New(1)
	r := dagba.Rule{Pivot: dagba.Ghost, Confirm: 3}
	parent := []appendmem.MsgID(nil)
	for i := 0; i < 7; i++ {
		msg := m.Writer(0).MustAppend(+1, 0, parent)
		parent = []appendmem.MsgID{msg.ID}
	}
	if _, ok := r.Decide(m.Read(), 5, nil); ok {
		t.Fatal("decided before k+confirm ordered values")
	}
	m.Writer(0).MustAppend(-1, 0, parent) // 8th: reaches k+confirm
	v, ok := r.Decide(m.Read(), 5, nil)
	if !ok || v != +1 {
		t.Fatalf("decide = (%d,%v); the -1 beyond position k must not count", v, ok)
	}
}

// TestRunRuleMatchesNodeRule: the trial-shared rule must append and decide
// exactly like a fresh per-node rule at every view size — first asked in
// the stale, repeating order a trial's nodes ask in, while Byzantine
// blocks with arbitrary parents land between the honest appends, then at
// every size of the finished history in ascending order — for both pivot
// rules, with and without a confirmation depth.
func TestRunRuleMatchesNodeRule(t *testing.T) {
	const k = 5
	for _, pivot := range []dagba.PivotRule{dagba.Ghost, dagba.Longest} {
		for _, confirm := range []int{0, 3} {
			rule := dagba.Rule{Pivot: pivot, Confirm: confirm}
			for seed := uint64(1); seed <= 4; seed++ {
				rng := xrand.New(seed, 31)
				m := appendmem.New(4)
				shared := rule.NewRunRule()
				shared.Reset(m)
				decide := func(s int) {
					v, ok := shared.Decide(m.ViewAt(s), k, nil)
					wv, wok := rule.NewNodeRule().Decide(m.ViewAt(s), k, nil)
					if v != wv || ok != wok {
						t.Fatalf("%v confirm %d seed %d: Decide at size %d = %d,%v, per-node rule %d,%v",
							pivot, confirm, seed, s, v, ok, wv, wok)
					}
				}
				appendAt := func(s int, id appendmem.NodeID) {
					c := m.Clone()
					rule.NewNodeRule().Append(c.ViewAt(s), c.Writer(id), +1, nil)
					shared.Append(m.ViewAt(s), m.Writer(id), +1, nil)
					last := appendmem.MsgID(m.Len() - 1)
					if got, want := m.Message(last).Parents, c.Message(last).Parents; !slices.Equal(got, want) {
						t.Fatalf("%v confirm %d seed %d: Append at size %d referenced %v, per-node rule %v",
							pivot, confirm, seed, s, got, want)
					}
				}
				for step := 0; step < 120; step++ {
					s := max(0, m.Len()-rng.Intn(8)) // a recent, possibly stale view
					switch rng.Intn(3) {
					case 0:
						decide(s)
					case 1:
						appendAt(s, appendmem.NodeID(rng.Intn(3)))
					default:
						var parents []appendmem.MsgID
						for j := rng.Intn(3); j > 0 && m.Len() > 0; j-- {
							parents = append(parents, appendmem.MsgID(rng.Intn(m.Len())))
						}
						m.Writer(3).MustAppend(-1, 0, parents)
					}
				}
				for s, end := 0, m.Len(); s <= end; s++ {
					decide(s)
					appendAt(s, appendmem.NodeID(s%3))
				}
				shared.Release()
			}
		}
	}
}
