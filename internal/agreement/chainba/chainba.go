// Package chainba implements Algorithm 5 of the paper: Byzantine agreement
// on the Chain. An honest node, when granted memory access, appends its
// input value to the tip of a longest chain of its current (up to Δ stale)
// view, breaking ties between equally long chains by a pluggable rule
// (Algorithm 5 Lines 5–7). Once some longest chain reaches length k, the
// node decides on the sign of the sum of the first k values in that chain
// (Line 10).
//
// The paper analyses two tie-breaking rules:
//
//   - deterministic (Garay et al.): Theorem 5.3 — weak Byzantine agreement
//     is impossible for t ≥ n/3 because the adversary can assume every tie
//     goes its way (chain.AdversarialTieBreaker);
//   - randomized (Ren): Theorem 5.4 — resilience degrades with the correct
//     append rate, t/n ≤ 1/(1+λ(n−t)).
package chainba

import (
	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/xrand"
)

// Rule is the honest-node behaviour of Algorithm 5, parameterized by the
// tie-breaking rule. It implements agreement.HonestRule.
//
// Confirm is an extension beyond the paper's Algorithm 5: the familiar
// blockchain "confirmation depth". With Confirm = c > 0 a node decides on
// the first k chain values only once the longest chain has length k+c, so
// the decision prefix is c blocks deep at decision time. Deep prefixes are
// harder to perturb late — experiment E19 measures how much that buys each
// structure.
//
// A Rule without per-node handles (the zero value, or one shared rule)
// rebuilds the chain index on every call: its nil chain.Cached handles are
// stateless. The agreement harness instead drives each correct node
// through NewNodeRule, whose per-node handles extend their indexes with
// the node's monotonically growing view; behaviour is identical either
// way.
type Rule struct {
	TB      chain.TieBreaker
	Confirm int

	// Per-node index handles, nil (stateless) in the shared rule. Appends
	// and decisions hold separate handles because their view streams
	// advance independently (an append may use a view older than the last
	// decision's refresh, e.g. under -FreshHonestReads decisions).
	app, dec *chain.Cached
}

// NewNodeRule implements agreement.PerNodeState: a copy of the rule with
// fresh per-node index caches.
func (r Rule) NewNodeRule() agreement.HonestRule {
	r.app, r.dec = chain.NewCached(), chain.NewCached()
	return r
}

// Append extends the tie-broken longest chain of the node's view with the
// node's input value. On an empty view the block attaches to the genesis.
func (r Rule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	tip := appendmem.None
	if tips := r.app.At(view).LongestTips(); len(tips) > 0 {
		tip = r.TB.Pick(tips, view, rng)
	}
	w.MustAppend(input, 0, []appendmem.MsgID{tip})
}

// Decide fires once the view contains a longest chain of length at least k
// and returns the sign of the sum of that chain's first k values.
func (r Rule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	t := r.dec.At(view)
	if t.Height() < k+r.Confirm {
		return 0, false
	}
	tips := t.LongestTips()
	tip := r.TB.Pick(tips, view, rng)
	return node.SumSign(t.PrefixValues(tip, k)), true
}

// ViewFloor implements agreement.WindowedRule: the smallest id this node's
// future appends or index extensions can reach, over both handles. Zero
// for the shared rule, whose nil handles cache nothing.
func (r Rule) ViewFloor() int { return min(r.app.Floor(), r.dec.Floor()) }

// CompactTo implements agreement.WindowedRule by compacting both handles'
// indexes; the watermark achieved is the smaller of the two.
func (r Rule) CompactTo(w int) int { return min(r.app.CompactTo(w), r.dec.CompactTo(w)) }

// AppendFloor implements agreement.AppendWindowed: the floor of the
// append-side handle alone, for consumers (the fresh-reading adversary)
// that never exercise the decision path.
func (r Rule) AppendFloor() int { return r.app.Floor() }

// CompactAppendTo implements agreement.AppendWindowed.
func (r Rule) CompactAppendTo(w int) int { return r.app.CompactTo(w) }
