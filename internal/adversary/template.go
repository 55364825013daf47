// Package adversary implements the Byzantine strategies the paper's
// Section 5 analyses use to derive the resilience bounds, plus a fuzzing
// adversary. The strategies are presets of two parameterized templates,
// ChainAttack and DagAttack: each named attack is one Params value below,
// which the scenario registry and the tests both read. The templates
// generalize the strategies along the axes a search harness wants to
// explore — fork schedule, fork target, equivocation fan-out,
// private-chain segment length, activation margin, release delay — and
// testdata/presets.golden pins the presets' runs byte-for-byte.
//
// All strategies exploit exactly the powers the model grants Byzantine
// nodes: free fresh reads at any instant, free choice of referenced state,
// and the same Poisson access rationing as everyone else. The templates
// draw no randomness of their own: a template run is a pure function of
// (Params, seed).
package adversary

import (
	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/sim"
)

// The named attack presets. Experiment titles name each by its strategy
// ("vs ChainForker"); the comment on each preset says which one it is.
var (
	// Fork is ChainForker (Theorem 5.3), the `fork` preset: against
	// deterministic tie-breaking, every Byzantine append forks the chain
	// by appending a sibling of the deepest correct block. With worst-case
	// (adversarial) tie-breaking the fork wins and the correct block is
	// orphaned, so the longest chain carries a Byzantine fraction of
	// t/(n−t) — a majority as soon as t ≥ n/3. With first-arrival
	// tie-breaking the attack loses its force. If every longest tip is
	// already Byzantine it extends one instead of forking itself.
	Fork = Params{ForkCount: 1, ForkPeriod: 1, Target: TargetCorrect, Fanout: 1}

	// TieBreak is ChainTieBreaker (Theorem 5.4), the `tiebreak` preset:
	// against randomized tie-breaking, the adversary "plays the role of a
	// tie-breaker among the concurrent correct appends". Reading the
	// memory fresh (no staleness handicap), it immediately extends the
	// first-arrived longest tip, so the remaining correct appends of the
	// Δ interval — made against an outdated state — land one level short
	// and are wasted.
	TieBreak = Params{ForkCount: 0, ForkPeriod: 1, Target: TargetCorrect, Fanout: 1}

	// Equivocate is Equivocator, the `equivocate` preset: it alternates
	// between a sibling and a child of the first longest tip, and appends
	// a sibling whenever only one longest tip exists, keeping forks alive
	// as long as possible. The chain protocols must still terminate: the
	// paper's termination argument only needs some longest chain to
	// reach k.
	Equivocate = Params{ForkCount: 1, ForkPeriod: 2, ForkLonely: true, Target: TargetFirst, Fanout: 1}

	// PrivateChain is DagChainExtender (Lemma 5.5), the `private-chain`
	// preset. On the DAG the adversary cannot orphan correct values (they
	// are included inclusively), but every Byzantine grant extends the
	// fresh pivot tip with a block that references only that tip, so the
	// Byzantine blocks enter the ordering early while contributing nothing
	// to the inclusion of correct values. During a correct-silent interval
	// the chain grows unobstructed, inserting runs of Θ(λ log n) Byzantine
	// values into the first k positions of the decision ordering.
	PrivateChain = Params{Root: RootPivot, Segment: 1, Fanout: 1}

	// LastMinute is DagLastMinute, the `last-minute` preset and the
	// literal Lemma 5.5 strategy: stay silent while the correct nodes fill
	// the ordering, and only once the decision threshold k is within 6
	// values start extending the pivot with single-parent blocks — "append
	// a chain of values in the last interval just before the decision".
	// With zero confirmation depth the burst occupies the tail of the
	// first k ordered values; a confirmation depth larger than the burst
	// seals the prefix before the attack can reach it (experiment E19).
	LastMinute = Params{Root: RootPivot, Segment: 1, StartWithin: 6, Fanout: 1}

	// PrivateFork is DagPrivateFork, the `private-fork` preset: the
	// classic GHOST-motivating attack (Sompolinsky & Zohar [22], the
	// paper's DAG tie-breaking reference). The Byzantine nodes build one
	// private chain from the genesis that never references an honest
	// block. Honest staleness forks dilute the honest nodes' longest
	// selected-parent chain, so at high rates the compact Byzantine chain
	// can out-length it and hijack a longest-chain pivot, while GHOST,
	// which weighs entire subtrees, keeps following the heavier honest
	// side. This is why Algorithm 6's correctness leans on GHOST-style
	// rules.
	PrivateFork = Params{Root: RootGenesis, Segment: 0, Fanout: 1}
)

// ChainAttack is the parameterized chain-substrate template. Per grant it
// reads the memory fresh and either *forks* (appends a sibling of a longest
// tip, per Target) or *extends* (appends a child of a longest tip), driven
// by a cyclic schedule: grant i forks iff i mod ForkPeriod < ForkCount,
// plus the ForkLonely override that forks whenever only one longest tip
// exists (keeping ties alive). Its presets are Fork, TieBreak and
// Equivocate.
type ChainAttack struct {
	P     Params
	env   *agreement.Env
	idx   *chain.Cached
	grant int
}

// Init implements agreement.Adversary.
func (a *ChainAttack) Init(env *agreement.Env) {
	a.env = env
	a.idx = chain.NewCached()
	a.grant = 0
	if a.P.ForkPeriod < 1 {
		a.P.ForkPeriod = 1
	}
	if a.P.Fanout < 1 {
		a.P.Fanout = 1
	}
}

// OnGrant implements agreement.Adversary.
func (a *ChainAttack) OnGrant(g access.Grant) {
	step := a.grant
	a.grant++
	view := a.env.Mem.Read()
	tips := a.idx.At(view).LongestTips()
	if len(tips) == 0 {
		a.publish(g.Node, []appendmem.MsgID{appendmem.None})
		return
	}
	fork := step%a.P.ForkPeriod < a.P.ForkCount
	if !fork && a.P.ForkLonely && len(tips) == 1 {
		fork = true
	}
	if fork {
		if a.P.Target == TargetCorrect {
			// Fork the first correct-authored longest tip; if every longest
			// tip is already Byzantine, extend ours (no point forking it).
			for _, tip := range tips {
				if !a.env.Roster.IsByzantine(view.Message(tip).Author) {
					a.publish(g.Node, []appendmem.MsgID{chain.Parent(view.Message(tip))})
					return
				}
			}
			a.publish(g.Node, []appendmem.MsgID{tips[0]})
			return
		}
		a.publish(g.Node, []appendmem.MsgID{chain.Parent(view.Message(tips[0]))})
		return
	}
	// Extend: round-robin across the first Fanout longest tips, so a raised
	// fan-out feeds every live fork instead of only the first.
	i := 0
	if a.P.Fanout > 1 {
		i = step % a.P.Fanout
		if i >= len(tips) {
			i = len(tips) - 1
		}
	}
	a.publish(g.Node, []appendmem.MsgID{tips[i]})
}

// publish lands the block, immediately or Withhold·Δ later. The parents
// were chosen against the grant-time view either way: a withheld block is
// decided early and released late.
func (a *ChainAttack) publish(node appendmem.NodeID, parents []appendmem.MsgID) {
	if a.P.Withhold <= 0 {
		a.env.Writer(node).MustAppend(-1, 0, parents)
		return
	}
	a.env.Sim.After(sim.Time(a.P.Withhold*a.env.Cfg.Delta), func() {
		a.env.Writer(node).MustAppend(-1, 0, parents)
	})
}

// DagAttack is the parameterized DAG-substrate template: Byzantine grants
// build private single-parent chains in Fanout round-robin lanes. A lane
// roots its segments at the fresh pivot tip or at the genesis (Root), and
// re-roots after every Segment blocks (0 = root once, never again).
// StartWithin > 0 wastes every grant until the pivot ordering is within
// that many values of the decision threshold k — the "last minute" gate.
// Its presets are PrivateChain, LastMinute and PrivateFork.
type DagAttack struct {
	P Params
	// Pivot must match the honest pivot rule when Root or StartWithin use it.
	Pivot dagba.PivotRule
	env   *agreement.Env
	idx   *dag.Cached
	tips  []appendmem.MsgID // per-lane private tip; None until rooted
	seg   []int             // per-lane blocks since the last rooting
	grant int
}

// Init implements agreement.Adversary.
func (a *DagAttack) Init(env *agreement.Env) {
	a.env = env
	a.idx = dag.NewCached()
	a.grant = 0
	if a.P.Fanout < 1 {
		a.P.Fanout = 1
	}
	if a.P.Root == "" {
		a.P.Root = RootPivot
	}
	a.tips = make([]appendmem.MsgID, a.P.Fanout)
	a.seg = make([]int, a.P.Fanout)
	for i := range a.tips {
		a.tips[i] = appendmem.None
	}
}

// OnGrant implements agreement.Adversary.
func (a *DagAttack) OnGrant(g access.Grant) {
	step := a.grant
	a.grant++
	// The fresh view is only consulted when a parameter needs it; the
	// private-fork preset never reads at all.
	var pivot []appendmem.MsgID
	if a.P.Root == RootPivot || a.P.StartWithin > 0 {
		d := a.idx.At(a.env.Mem.Read())
		pivot = a.Pivot.Pivot(d)
		// Too early while the order covers fewer than K−StartWithin blocks:
		// wasting the token IS the strategy. The index orders no further
		// than that.
		if want := a.env.Cfg.K - a.P.StartWithin; a.P.StartWithin > 0 && want > 0 && len(d.OrderedValues(pivot, want)) < want {
			return
		}
	}
	lane := 0
	if a.P.Fanout > 1 {
		lane = step % a.P.Fanout
	}
	if a.tips[lane] == appendmem.None || (a.P.Segment > 0 && a.seg[lane] >= a.P.Segment) {
		// Root a fresh segment.
		var parents []appendmem.MsgID
		if a.P.Root == RootPivot && len(pivot) > 0 {
			parents = []appendmem.MsgID{pivot[len(pivot)-1]}
		}
		a.seg[lane] = 1
		a.publish(g.Node, lane, parents)
		return
	}
	a.seg[lane]++
	a.publish(g.Node, lane, []appendmem.MsgID{a.tips[lane]})
}

// publish lands the block and records it as the lane's new tip — at grant
// time, or Withhold·Δ later (in which case intervening grants still chain
// off the previous tip, widening the private structure).
func (a *DagAttack) publish(node appendmem.NodeID, lane int, parents []appendmem.MsgID) {
	if a.P.Withhold <= 0 {
		a.tips[lane] = a.env.Writer(node).MustAppend(-1, 0, parents).ID
		return
	}
	a.env.Sim.After(sim.Time(a.P.Withhold*a.env.Cfg.Delta), func() {
		a.tips[lane] = a.env.Writer(node).MustAppend(-1, 0, parents).ID
	})
}
