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
	"repro/internal/runner"
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
// stateless. The agreement harness instead drives a trial's correct nodes
// through NewRunRule, one DAG index of the trial's memory plus a memo by
// view size, or — on windowed runs and for the value-flipping adversary —
// through NewNodeRule, whose per-node handles extend their indexes with
// the node's monotonically growing view. Behaviour is identical every way.
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
	w.MustAppend(input, 0, parents(d, r.Pivot.Pivot(d), nil))
}

// parents writes into buf the parent list of an append on d: the tip of
// pivot (d's pivot chain), then every other tip in arrival order. Empty on
// an empty DAG. buf is reused when it has room for the list.
func parents(d *dag.Dag, pivot, buf []appendmem.MsgID) []appendmem.MsgID {
	tips := d.Tips()
	if len(tips) == 0 {
		return buf[:0]
	}
	if cap(buf) <= len(tips) {
		buf = make([]appendmem.MsgID, 0, len(tips)+1)
	}
	pivotTip := pivot[len(pivot)-1]
	ps := append(buf[:0], pivotTip)
	for _, tip := range tips {
		if tip != pivotTip {
			ps = append(ps, tip)
		}
	}
	return ps
}

// Decide fires once the pivot-chain ordering covers at least k values and
// returns the sign of the sum of the first k ordered values.
func (r Rule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	d := r.dec.At(view)
	return r.decide(d, r.Pivot.Pivot(d), k)
}

// decide is Decide on d, whose pivot chain is pivot.
func (r Rule) decide(d *dag.Dag, pivot []appendmem.MsgID, k int) (int64, bool) {
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

// NewRunRule implements agreement.PerRunState: one rule for every correct
// node of a trial, reading one pooled DAG index of the trial's memory.
func (r Rule) NewRunRule() agreement.RunRule {
	rr := runRules.Get()
	rr.rule = Rule{Pivot: r.Pivot, Confirm: r.Confirm}
	return rr
}

// runRule is the trial-shared rule. GHOST weights change as the memory
// grows, so unlike the chain's index a DAG index answers only for the
// prefix it has ingested. But the rule ignores its rng, so a node's
// append parents and decision are pure functions of its view's size, and
// a memo computes each once per size. A decision fills the size's parents
// too: the node appends on the view it last decided on, so in the default
// timing model every append finds its parents memoized.
//
// A size at or above the main index's is answered by extending it in
// arrival order; a smaller one (a stale view asked for the first time) by
// the trailing prefix index, extended when the size lies above it and
// rebuilt from scratch otherwise. On a small-world topology, whose nodes
// read stale prefixes, that ingested 2.78 blocks per appended block where
// a rebuild for every such size ingested 9.35.
type runRule struct {
	rule   Rule
	mem    *appendmem.Memory
	main   dag.Dag
	prefix dag.Dag
	memo   []sizeMemo // by view size
	// prefixBlocks counts the blocks the prefix index has ingested: with
	// the main index's, the run's deterministic ingest count.
	prefixBlocks int
	// prefixOrdered counts the ids the prefix index placed before its
	// last rebuild reset its own count.
	prefixOrdered int
	arena         []appendmem.MsgID // backs the memoized parent lists
	buf           []appendmem.MsgID // parent-list scratch
}

// sizeMemo is what the rule computed for one view size.
type sizeMemo struct {
	parents []appendmem.MsgID // an append's parent list, in the rule's arena
	v       int64             // the decision, when decided
	k       int32             // the threshold the decision was computed for
	flags   uint8
}

const (
	hasParents uint8 = 1 << iota
	hasDecision
	decided
)

// Parent-list arena geometry: blocks double from arenaBase up to
// arenaMax and are never grown in place, so memoized lists stay valid.
const (
	arenaBase = 256
	arenaMax  = 16384
)

var runRules = runner.NewPool(func() *runRule { return &runRule{} })

// Reset implements agreement.RunRule.
func (r *runRule) Reset(mem *appendmem.Memory) {
	r.mem = mem
	r.restart(mem.ViewAt(0))
}

// restart empties both indexes onto empty (an empty view), the memo and
// the arena.
func (r *runRule) restart(empty appendmem.View) {
	r.main.Reset(empty)
	r.prefix.Reset(empty)
	clear(r.memo)
	r.memo, r.prefixBlocks, r.prefixOrdered, r.arena = r.memo[:0], 0, 0, r.arena[:0]
}

// Release implements agreement.RunRule. It drops every reference into
// the trial's memory, so a pooled rule pins nothing.
func (r *runRule) Release() {
	r.restart(appendmem.View{})
	r.rule, r.mem = Rule{}, nil
	runRules.Put(r)
}

// Append implements agreement.HonestRule like Rule.Append.
func (r *runRule) Append(view appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	m := r.entry(view.Size())
	if m.flags&hasParents == 0 {
		r.fill(m, view.Size(), 0)
	}
	w.MustAppend(input, 0, m.parents)
}

// Decide implements agreement.HonestRule like Rule.Decide.
func (r *runRule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	m := r.entry(view.Size())
	if m.flags&hasDecision == 0 || int(m.k) != k {
		r.fill(m, view.Size(), k)
	}
	return m.v, m.flags&decided != 0
}

// entry returns the memo slot of view size s.
func (r *runRule) entry(s int) *sizeMemo {
	for len(r.memo) <= s {
		r.memo = append(r.memo, sizeMemo{})
	}
	return &r.memo[s]
}

// fill computes m from an index of the prefix of size s: the append
// parents when missing and, for k > 0, the decision at threshold k.
func (r *runRule) fill(m *sizeMemo, s, k int) {
	d := r.at(s)
	pivot := r.rule.Pivot.Pivot(d)
	if m.flags&hasParents == 0 {
		r.buf = parents(d, pivot, r.buf)
		m.parents = r.intern(r.buf)
		m.flags |= hasParents
	}
	if k > 0 {
		v, ok := r.rule.decide(d, pivot, k)
		m.v, m.k, m.flags = v, int32(k), (m.flags|hasDecision)&^decided
		if ok {
			m.flags |= decided
		}
	}
}

// at returns an index of the memory's prefix of size s.
func (r *runRule) at(s int) *dag.Dag {
	if s >= r.main.Indexed() {
		r.main.Extend(r.mem.ViewAt(s))
		return &r.main
	}
	if p := r.prefix.Indexed(); s >= p {
		r.prefixBlocks += s - p
		r.prefix.Extend(r.mem.ViewAt(s))
	} else {
		r.prefixBlocks += s
		r.prefixOrdered += r.prefix.Ordered()
		r.prefix.Reset(r.mem.ViewAt(s))
	}
	return &r.prefix
}

// intern copies ps into the arena and returns the copy; nil when empty.
func (r *runRule) intern(ps []appendmem.MsgID) []appendmem.MsgID {
	if len(ps) == 0 {
		return nil
	}
	if cap(r.arena)-len(r.arena) < len(ps) {
		c := min(max(2*cap(r.arena), arenaBase), arenaMax)
		r.arena = make([]appendmem.MsgID, 0, max(c, len(ps)))
	}
	start := len(r.arena)
	r.arena = append(r.arena, ps...)
	return r.arena[start:len(r.arena):len(r.arena)]
}

// Indexed returns the blocks the trial's indexes have ingested: the main
// index's extensions plus every prefix-index block.
func (r *runRule) Indexed() int { return r.main.Indexed() + r.prefixBlocks }

// Ordered returns the ids the trial's indexes have placed in
// linearizations: the main index's plus every prefix index's.
func (r *runRule) Ordered() int { return r.main.Ordered() + r.prefixOrdered + r.prefix.Ordered() }
