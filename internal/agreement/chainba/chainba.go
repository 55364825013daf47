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
	"repro/internal/runner"
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
// stateless. The agreement harness instead drives a trial's correct nodes
// through NewRunRule, one chain index of the trial's memory queried at
// each view's size, or — on windowed runs and for the value-flipping
// adversary — through NewNodeRule, whose per-node handles extend their
// indexes with the node's monotonically growing view. Behaviour is
// identical every way.
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
	r.append(r.app.At(view), view, w, input, rng)
}

// append is Append on t, an index holding at least view's prefix.
func (r Rule) append(t *chain.Tree, view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	tip := appendmem.None
	if tips := t.TipsAt(view.Size()); len(tips) > 0 {
		tip = r.TB.Pick(tips, view, rng)
	}
	w.MustAppend(input, 0, []appendmem.MsgID{tip})
}

// Decide fires once the view contains a longest chain of length at least k
// and returns the sign of the sum of that chain's first k values.
func (r Rule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	return r.decide(r.dec.At(view), view, k, rng)
}

// decide is Decide on t, an index holding at least view's prefix.
func (r Rule) decide(t *chain.Tree, view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	s := view.Size()
	if t.HeightAt(s) < k+r.Confirm {
		return 0, false
	}
	tip := r.TB.Pick(t.TipsAt(s), view, rng)
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

// NewRunRule implements agreement.PerRunState: one rule for every correct
// node of a trial, reading one pooled chain index of the trial's memory.
func (r Rule) NewRunRule() agreement.RunRule {
	rr := runRules.Get()
	rr.rule = Rule{TB: r.TB, Confirm: r.Confirm}
	return rr
}

// runRule is the trial-shared rule. Its index ingests every block of the
// memory once, in arrival order; depth, parent and chain values never
// change as the memory grows, and the index records how the height and
// longest tips evolved, so a node's answer is the index queried at its
// view's size. The tie-breaker still draws from the calling node's rng,
// over the same tips in the same order as a per-node index would give.
type runRule struct {
	rule Rule
	mem  *appendmem.Memory
	tree chain.Tree
}

var runRules = runner.NewPool(func() *runRule { return &runRule{} })

// Reset implements agreement.RunRule.
func (r *runRule) Reset(mem *appendmem.Memory) {
	r.mem = mem
	r.tree.Reset(mem.ViewAt(0))
}

// Release implements agreement.RunRule. It drops every reference into
// the trial's memory, so a pooled rule pins nothing.
func (r *runRule) Release() {
	r.tree.Reset(appendmem.View{})
	r.rule, r.mem = Rule{}, nil
	runRules.Put(r)
}

// at brings the index up to the whole memory; every view is a prefix.
func (r *runRule) at() *chain.Tree {
	r.tree.Extend(r.mem.Read())
	return &r.tree
}

// Append implements agreement.HonestRule like Rule.Append.
func (r *runRule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	r.rule.append(r.at(), view, w, input, rng)
}

// Decide implements agreement.HonestRule like Rule.Decide.
func (r *runRule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	return r.rule.decide(r.at(), view, k, rng)
}

// Indexed returns the blocks the trial's index has ingested: the memory's
// length once the index has caught up, each block counted once.
func (r *runRule) Indexed() int { return r.tree.Indexed() }
