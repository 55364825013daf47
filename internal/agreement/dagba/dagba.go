// Package dagba implements Algorithm 6 of the paper: Byzantine agreement
// on the DAG. An honest node, when granted memory access, appends its input
// value referencing *all* tips of its current (up to Δ stale) view — the
// inclusive strategy (Algorithm 6 Lines 5–6) — with the pivot-rule tip as
// selected parent. Once the ordering induced by the pivot chain covers at
// least k values, the node orders the DAG with respect to the pivot chain
// (Line 9) and decides on the sign of the sum of the first k values in the
// ordering (Line 10).
//
// The pivot rule is either GHOST (heaviest subtree, Sompolinsky–Zohar) or
// the longest selected-parent chain (Conflux). Theorem 5.6: validity,
// termination and agreement hold w.h.p. with resilience independent of the
// access rate λ and close to the optimal t < n/2.
package dagba

import (
	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/dag"
	"repro/internal/node"
	"repro/internal/xrand"
)

// PivotRule selects how the pivot chain is chosen.
type PivotRule int

// Pivot rules.
const (
	Ghost   PivotRule = iota // heaviest selected-parent subtree
	Longest                  // longest selected-parent chain
)

func (p PivotRule) String() string {
	if p == Ghost {
		return "ghost"
	}
	return "longest"
}

// Pivot returns the pivot chain of d under rule p, oldest first.
func (p PivotRule) Pivot(d *dag.Dag) []appendmem.MsgID {
	if p == Ghost {
		return d.GhostPivot()
	}
	return d.LongestPivot()
}

// Rule is the honest-node behaviour of Algorithm 6. It implements
// agreement.HonestRule.
//
// Confirm is an extension beyond the paper's Algorithm 6: confirmation
// depth. With Confirm = c > 0 a node decides on the first k ordered values
// only once the ordering covers k+c values, making late insertion into the
// decision prefix (Lemma 5.5's attack) land beyond position k.
//
// A Rule without per-node handles (the zero value, or one shared rule)
// rebuilds the DAG index on every call: its nil dag.Cached handles are
// stateless. The agreement harness instead drives each correct node
// through NewNodeRule, whose per-node handles extend their indexes with
// the node's monotonically growing view; behaviour is identical either
// way.
type Rule struct {
	Pivot   PivotRule
	Confirm int

	// Per-node index handles, nil (stateless) in the shared rule. Appends
	// and decisions hold separate handles because their view streams
	// advance independently.
	app, dec *dag.Cached
}

// NewNodeRule implements agreement.PerNodeState: a copy of the rule with
// fresh per-node index caches.
func (r Rule) NewNodeRule() agreement.HonestRule {
	r.app, r.dec = dag.NewCached(), dag.NewCached()
	return r
}

// Append references all tips of the node's view, pivot tip first (the
// selected parent), and carries the node's input value.
func (r Rule) Append(view appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	d := r.app.At(view)
	tips := d.Tips()
	if len(tips) == 0 {
		w.MustAppend(input, 0, nil)
		return
	}
	pivot := r.Pivot.Pivot(d)
	pivotTip := pivot[len(pivot)-1]
	parents := make([]appendmem.MsgID, 0, len(tips))
	parents = append(parents, pivotTip)
	for _, tip := range tips {
		if tip != pivotTip {
			parents = append(parents, tip)
		}
	}
	w.MustAppend(input, 0, parents)
}

// Decide fires once the pivot-chain ordering covers at least k values and
// returns the sign of the sum of the first k ordered values.
func (r Rule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	d := r.dec.At(view)
	pivot := r.Pivot.Pivot(d)
	vals := d.OrderedValues(pivot, k+r.Confirm)
	if len(vals) < k+r.Confirm {
		return 0, false
	}
	return node.SumSign(vals[:k]), true
}

// Ordering exposes the full decision ordering for a view — used by
// experiments to analyse the Byzantine composition of the first k values
// (Lemma 5.5).
func (r Rule) Ordering(view appendmem.View) []appendmem.MsgID {
	d := r.dec.At(view)
	return d.Linearize(r.Pivot.Pivot(d))
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
