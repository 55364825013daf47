// Package chain implements the blockchain structure of Section 5.2 on top
// of the append memory: every appended message designates exactly one
// parent (Parents[0], or appendmem.None for blocks attached to the virtual
// genesis), forming a tree; protocols follow a longest chain and break ties
// between equally long chains by a pluggable rule.
//
// The three tie-breaking rules mirror the paper's discussion:
//
//   - Deterministic "first" (Garay et al. [9]): the first of the longest
//     tips in memory-arrival order. In the append memory arrival order is
//     not observable by nodes, but since appends are instantly visible,
//     "first seen" coincides with arrival order for every node, so this is
//     the faithful simulation of the first-seen rule.
//   - Adversarial: the worst case over all deterministic rules, used by
//     Theorem 5.3 ("one can assume that all ties will be broken in favor of
//     the adversary"): whenever a Byzantine tip ties, it wins.
//   - Randomized (Ren [21]): a uniformly random longest tip.
//
// A Tree is a dense-slice index over a View's MsgID space (IDs are the
// contiguous 0..Size-1 arrival prefix of one append-only Memory, parents
// always precede children). It keeps one record per block — depth, chain
// parent, value, the tree height once the block arrived, a link to the
// previous block at the same depth and a traversal mark — and nothing
// else: every query walks parent edges towards the genesis, so the index
// needs no child lists. Build constructs it from scratch in O(view);
// Extend ingests only the suffix appended since the previous view, in
// O(1) per block — a consumer that re-reads a growing memory every step
// (see Cached) pays amortized O(1) per block instead of O(view) per step.
//
// Depth, parent and chain values never change as the view grows, and the
// per-block height and same-depth links record how the longest-tip set
// evolved, so one Tree of a memory answers for every prefix of it:
// HeightAt and TipsAt take the prefix size. Nodes whose views are
// prefixes of one memory can therefore share one index, each querying it
// at its own view's size.
package chain

import (
	"fmt"
	"slices"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// Tree indexes the parent structure of a view. Blocks whose parent is not
// visible in the view are "dangling" and excluded from depth computations;
// with the append memory this only happens for malformed (Byzantine)
// references, since parents must be appended before children.
//
// Parents and values are copied into the block records as extend ingests
// them, so every query after ingestion is answered from the index alone: a
// windowed memory may retire messages the index still holds live. Compact
// (the retirement companion of Extend) rebases the records on an origin
// `off`: ids below off are frozen — their chain values are retained in
// frozenVals but their records are dropped, and any query for them panics,
// mirroring the append memory's watermark contract.
type Tree struct {
	view  appendmem.View
	built int // number of view-prefix blocks ingested
	size  int // non-dangling blocks, including frozen ones

	off    int     // first live id; blocks index id-off
	blocks []block // by id-off
	height int
	// lastAt[d-1-len(frozenVals)] is the newest id at depth d. With each
	// block's prev link it threads the arrival-ordered ids of every live
	// depth, so TipsAt reads the blocks at one depth below a prefix size
	// without per-depth storage.
	lastAt []int32
	tipBuf []appendmem.MsgID // TipsAt's result, reused by the next call

	// Frozen-prefix state: the values of the chain genesis..anchor (oldest
	// first; the anchor's depth equals len(frozenVals)) and the count of
	// frozen non-dangling blocks that were not on that chain.
	frozenVals   []int64
	frozenWasted int

	// markEpoch stamps the blocks a Forks or Compact pass visits: a block
	// is marked in the current pass iff its mark equals markEpoch.
	markEpoch uint32
}

// block is the index's record of one id; a dangling block keeps the record
// extend appends, with depth 0. The record stays 32 bytes.
type block struct {
	depth  int32           // genesis children = 1; 0 = dangling
	hAt    int32           // the tree height once this id is ingested
	parent appendmem.MsgID // chain parent, None for genesis children
	value  int64
	prev   int32  // the previous id at the same depth; -1 or below off ends the list
	mark   uint32 // equals Tree.markEpoch once the current pass visits it
}

// Parent returns the chain parent of msg: Parents[0], or None when the
// block hangs off the genesis.
func Parent(msg *appendmem.Message) appendmem.MsgID {
	if len(msg.Parents) == 0 {
		return appendmem.None
	}
	return msg.Parents[0]
}

// Build indexes the chain structure of view from scratch.
func Build(view appendmem.View) *Tree {
	// Room for 64 depth lists up front; past that they grow by doubling.
	t := &Tree{blocks: make([]block, 0, view.Size()), lastAt: make([]int32, 0, 64)}
	t.Reset(view)
	return t
}

// Reset re-points t at view, which may belong to another memory, and
// indexes it from scratch, keeping the storage of earlier builds: a pooled
// index reused across trials allocates nothing once warm.
func (t *Tree) Reset(view appendmem.View) {
	*t = Tree{view: view, blocks: t.blocks[:0], lastAt: t.lastAt[:0], tipBuf: t.tipBuf[:0],
		frozenVals: t.frozenVals[:0]}
	t.extend(view.Size())
}

// Extend ingests the blocks appended between the Tree's current view and
// view, which must be a later read of the same memory (the Tree's view is
// a prefix of it). All queries afterwards answer for the extended view. It
// panics when view is not an extension.
func (t *Tree) Extend(view appendmem.View) {
	if !t.view.SubsetOf(view) {
		panic("chain: Extend with a view that does not extend the indexed one")
	}
	t.view = view
	t.extend(view.Size())
}

// extend ingests ids [t.built, size). MsgIDs are assigned in arrival order
// and parents always precede children, so one increasing-ID pass computes
// all depths.
func (t *Tree) extend(size int) {
	base := int32(len(t.frozenVals)) + 1 // the depth lastAt[0] lists
	height := int32(t.height)
	for id := appendmem.MsgID(t.built); int(id) < size; id++ {
		msg := t.view.Message(id)
		p := Parent(msg)
		depth := t.childDepth(p)
		prev := int32(-1)
		if depth != 0 {
			t.size++
			height = max(height, depth)
			// A fresh root after a Compact can sit at or below the anchor's
			// depth: it is never a longest tip, so it joins no list. A
			// block is at most one deeper than the height, so at most one
			// list is new.
			if lvl := depth - base; lvl >= 0 {
				if int(lvl) == len(t.lastAt) {
					t.lastAt = append(t.lastAt, -1)
				}
				prev, t.lastAt[lvl] = t.lastAt[lvl], int32(id)
			}
		}
		// Fill the record in place: a literal would be assembled on the
		// stack from 4-byte fields and copied out in 16-byte moves, which
		// stalls store-to-load forwarding on every block.
		t.blocks = append(t.blocks, block{})
		b := &t.blocks[len(t.blocks)-1]
		b.depth, b.hAt, b.parent, b.value, b.prev = depth, height, p, msg.Value, prev
	}
	t.height, t.built = int(height), size
}

// childDepth returns the depth of a block whose chain parent is p, or 0
// when it dangles. Parents precede children, so p is already indexed.
func (t *Tree) childDepth(p appendmem.MsgID) int32 {
	switch {
	case p == appendmem.None:
		return 1
	case int(p) < t.off-1:
		return 0 // dangling: parent frozen away (malformed reference)
	case t.off > 0 && int(p) == t.off-1:
		return int32(len(t.frozenVals)) + 1 // extends the anchor directly
	}
	if pd := t.blocks[int(p)-t.off].depth; pd != 0 {
		return pd + 1
	}
	return 0 // dangling: parent itself dangling
}

// nextMark starts a marking pass and returns its stamp. On the wrap of
// the 32-bit epoch it clears every stamp first, so a stale mark can never
// pass for a current one.
func (t *Tree) nextMark() uint32 {
	t.markEpoch++
	if t.markEpoch == 0 {
		for i := range t.blocks {
			t.blocks[i].mark = 0
		}
		t.markEpoch = 1
	}
	return t.markEpoch
}

// Compact retires the index prefix below reqW that the decision rules can
// no longer reach, and returns the watermark actually achieved (old one
// when nothing could be retired). It freezes an anchor block A — the
// deepest ancestor of the longest chains with id below both reqW and
// every longest tip, such that every live non-dangling block descends
// from A — records the chain values genesis..A in frozenVals (so
// PrefixValues and decisions stay exact), and drops the records below
// A+1 by shifting the rest down in place. MsgIDs strictly increase along
// chains, so an id-based cut at a chain anchor is reachability-exact: no
// tip walk, depth lookup or tie-break can reach below it.
//
// Compact is conservative: when no anchor below reqW can be proven
// unreachable it does nothing and returns the current watermark. The
// caller must guarantee that blocks ingested by later Extends reference
// parents at or above the returned watermark (the agreement harness
// enforces this by taking the minimum over all nodes' tip floors before
// retiring the memory).
func (t *Tree) Compact(reqW int) int {
	if reqW > t.built {
		reqW = t.built
	}
	first := t.TipFloor()
	if reqW <= t.off || first < 0 {
		return t.off
	}
	// The anchor must sit strictly below every longest tip.
	limit := min(reqW, int(first))
	if limit <= t.off {
		return t.off
	}
	// Candidate: the deepest ancestor of the first longest tip below limit.
	// Any other longest tip's chain meets this chain at or below the
	// candidate (checked by the descendant pass below).
	cand := first
	for int(cand) >= limit {
		cand = t.blocks[int(cand)-t.off].parent
		if cand == appendmem.None || int(cand) < t.off {
			return t.off // chain exits the live region before an eligible anchor
		}
	}
	// Every live non-dangling block above the candidate must descend from
	// it; one ascending-id pass inherits the mark from the parent.
	e := t.nextMark()
	t.blocks[int(cand)-t.off].mark = e
	for idx := int(cand) + 1 - t.off; idx < len(t.blocks); idx++ {
		b := &t.blocks[idx]
		if b.depth == 0 {
			continue // dangling blocks freeze away silently
		}
		if int(b.parent) < int(cand) || t.blocks[int(b.parent)-t.off].mark != e {
			return t.off // a live fork still reaches below the candidate
		}
		b.mark = e
	}
	// Freeze: append the chain values old-anchor..cand to frozenVals and
	// count the frozen off-chain blocks.
	w := int(cand) + 1
	chainLen := 0
	for cur := cand; int(cur) >= t.off; cur = t.blocks[int(cur)-t.off].parent {
		chainLen++
	}
	at := len(t.frozenVals)
	t.frozenVals = append(t.frozenVals, make([]int64, chainLen)...)
	for cur, i := cand, at+chainLen-1; int(cur) >= t.off; i-- {
		b := &t.blocks[int(cur)-t.off]
		t.frozenVals[i] = b.value
		cur = b.parent
	}
	frozen := 0 // non-dangling blocks in [off, cand]
	for _, b := range t.blocks[:w-t.off] {
		if b.depth != 0 {
			frozen++
		}
	}
	t.frozenWasted += frozen - chainLen
	// Shift the live records down in place so the backing array stays
	// bounded by the live window, and rebase the depth lists on the new
	// anchor: every live block descends from it, so the lists of depths at
	// or above the anchor's hold only frozen ids.
	t.blocks = append(t.blocks[:0], t.blocks[w-t.off:]...)
	t.lastAt = t.lastAt[:copy(t.lastAt, t.lastAt[chainLen:])]
	t.off = w
	return w
}

// Height returns the length of the longest chain (0 for an empty view).
func (t *Tree) Height() int { return t.height }

// HeightAt returns the length of the longest chain in the view prefix of
// size s, at most the indexed size. After a Compact s must lie above the
// watermark.
func (t *Tree) HeightAt(s int) int {
	if s > t.built {
		panic(fmt.Sprintf("chain: HeightAt(%d) past the %d indexed blocks", s, t.built))
	}
	if s == 0 && t.off == 0 {
		return 0
	}
	if s <= t.off {
		panic(fmt.Sprintf("chain: HeightAt(%d) at or below watermark %d", s, t.off))
	}
	return int(t.blocks[s-1-t.off].hAt)
}

// TipsAt returns the tips of all longest chains of the view prefix of size
// s — every block of that prefix at depth HeightAt(s) — in arrival order;
// empty for an empty prefix. It walks the same-depth links from the
// newest block at that depth, so the call costs O(blocks at that depth)
// and allocates nothing once warm.
//
// The slice is index-owned: callers must not mutate it, and the next
// TipsAt or LongestTips call on the Tree overwrites it. After a Compact
// only s == the indexed size is exact (frozen blocks are no longer
// listed); prefix queries need an uncompacted Tree.
func (t *Tree) TipsAt(s int) []appendmem.MsgID {
	h := t.HeightAt(s)
	if h == 0 {
		return nil
	}
	lvl := h - 1 - len(t.frozenVals)
	if lvl < 0 {
		panic(fmt.Sprintf("chain: TipsAt(%d) below the compaction anchor", s))
	}
	id := t.lastAt[lvl]
	for int(id) >= s {
		id = t.blocks[int(id)-t.off].prev
	}
	buf := t.tipBuf[:0]
	for ; int(id) >= t.off; id = t.blocks[int(id)-t.off].prev {
		buf = append(buf, appendmem.MsgID(id))
	}
	slices.Reverse(buf)
	t.tipBuf = buf
	return buf[:len(buf):len(buf)]
}

// TipFloor returns the smallest id among the longest tips, or -1 for an
// empty tree: the first block to reach the current height. It walks the
// top depth's links and leaves TipsAt's buffer alone — it is the
// reachability floor windowed retirement takes the minimum over.
func (t *Tree) TipFloor() appendmem.MsgID {
	id := t.topTip()
	if id < 0 {
		return -1
	}
	for {
		prev := t.blocks[int(id)-t.off].prev
		if int(prev) < t.off {
			return appendmem.MsgID(id)
		}
		id = prev
	}
}

// topTip returns the newest longest tip, the head of the top depth's
// links, or -1 for an empty tree.
func (t *Tree) topTip() int32 {
	if t.height == 0 {
		return -1
	}
	return t.lastAt[t.height-1-len(t.frozenVals)]
}

// Indexed returns the number of view-prefix blocks the Tree has ingested
// since Build or Reset: its deterministic work count. Each block is
// ingested once, so an index extended over a whole memory reports the
// memory's length.
func (t *Tree) Indexed() int { return t.built }

// depthOf returns the block's depth, 0 when absent or dangling. It panics
// for blocks frozen below the compaction watermark.
func (t *Tree) depthOf(id appendmem.MsgID) int32 {
	if id >= 0 && int(id) < t.off {
		panic(fmt.Sprintf("chain: query for id %d below watermark %d", id, t.off))
	}
	if id < 0 || int(id) >= t.built {
		return 0
	}
	return t.blocks[int(id)-t.off].depth
}

// Depth returns the depth of a block (1 for genesis children) and whether
// the block is in the tree (visible and not dangling). It panics for
// blocks frozen below the compaction watermark.
func (t *Tree) Depth(id appendmem.MsgID) (int, bool) {
	d := t.depthOf(id)
	return int(d), d != 0
}

// LongestTips returns the tips of all longest chains — every block at
// maximal depth — in arrival order: TipsAt of the indexed size, with its
// contract (index-owned, overwritten by the next call). Empty when the
// view is empty.
func (t *Tree) LongestTips() []appendmem.MsgID { return t.TipsAt(t.built) }

// ChainTo returns the chain down to tip, inclusive, oldest first: from the
// genesis child, or — after a Compact — from the first live block above
// the anchor. It returns nil when tip is not in the tree.
func (t *Tree) ChainTo(tip appendmem.MsgID) []appendmem.MsgID {
	d := t.depthOf(tip)
	if d == 0 {
		return nil
	}
	n := int(d) - len(t.frozenVals) // live chain length
	chain := make([]appendmem.MsgID, n)
	cur := tip
	for i := n - 1; i >= 0; i-- {
		chain[i] = cur
		cur = t.blocks[int(cur)-t.off].parent
	}
	if t.off > 0 && cur != appendmem.MsgID(t.off-1) {
		panic("chain: compacted chain does not land on the anchor")
	}
	return chain
}

// SelectedChain returns the chain to the longest tip tb picks, oldest
// first as ChainTo gives it, or nil for an empty tree. tb is handed a nil
// rng, so SelectedChain is for deterministic tie-breakers: the canonical
// chain an analysis reads off a view, not a protocol node's draw.
func (t *Tree) SelectedChain(tb TieBreaker) []appendmem.MsgID {
	if t.height == 0 {
		return nil
	}
	return t.ChainTo(tb.Pick(t.LongestTips(), t.view, nil))
}

// Forks returns the number of blocks that are not on any longest chain —
// the "wasted" appends of Theorem 5.4's analysis. Blocks frozen by Compact
// keep contributing through the frozen-wasted tally: the anchor is on
// every longest chain, so their on/off-chain status is final.
func (t *Tree) Forks() int {
	e := t.nextMark()
	// Mark back from every longest tip, walking the top depth's links so
	// TipsAt's buffer stays the caller's.
	for tip := t.topTip(); int(tip) >= t.off; tip = t.blocks[int(tip)-t.off].prev {
		for cur := appendmem.MsgID(tip); int(cur) >= t.off; {
			b := &t.blocks[int(cur)-t.off]
			if b.mark == e {
				break
			}
			b.mark = e
			cur = b.parent
		}
	}
	wasted := t.frozenWasted
	for _, b := range t.blocks {
		if b.depth != 0 && b.mark != e {
			wasted++
		}
	}
	return wasted
}

// TieBreaker selects one tip among the longest tips. Implementations must
// handle a non-empty tips slice (in arrival order) and return an element
// of it.
type TieBreaker interface {
	// Pick chooses among tips; view gives access to the blocks' contents
	// and rng supplies the calling node's private randomness (ignored by
	// deterministic rules). tips is usually index-owned (TipsAt,
	// LongestTips), and one index serves every node of a run:
	// implementations must not mutate it.
	Pick(tips []appendmem.MsgID, view appendmem.View, rng *xrand.PCG) appendmem.MsgID
}

// FirstTieBreaker implements the deterministic first-seen rule of Garay et
// al.: the earliest-arrived longest tip wins.
type FirstTieBreaker struct{}

// Pick returns the first tip.
func (FirstTieBreaker) Pick(tips []appendmem.MsgID, _ appendmem.View, _ *xrand.PCG) appendmem.MsgID {
	return tips[0]
}

// RandomTieBreaker implements Ren's randomized rule: a uniformly random
// longest tip, drawn from the calling node's randomness.
type RandomTieBreaker struct{}

// Pick returns a uniformly random tip.
func (RandomTieBreaker) Pick(tips []appendmem.MsgID, _ appendmem.View, rng *xrand.PCG) appendmem.MsgID {
	return tips[rng.Intn(len(tips))]
}

// AdversarialTieBreaker is the worst case over all deterministic rules used
// in Theorem 5.3's analysis: if any tip was authored by a Byzantine node,
// the earliest such tip wins; otherwise the first tip.
type AdversarialTieBreaker struct {
	// IsByzantine reports whether the author is Byzantine.
	IsByzantine func(appendmem.NodeID) bool
}

// Pick prefers Byzantine-authored tips.
func (a AdversarialTieBreaker) Pick(tips []appendmem.MsgID, view appendmem.View, _ *xrand.PCG) appendmem.MsgID {
	for _, tip := range tips {
		if a.IsByzantine(view.Message(tip).Author) {
			return tip
		}
	}
	return tips[0]
}

// PrefixValues returns the values of the first k blocks of the chain ending
// at tip (oldest first); fewer when the chain is shorter. This is the
// decision input of Algorithm 5 Line 10. The prefix spans the full chain
// from genesis even after a Compact: the frozen chain's values are exactly
// what Compact retains, so windowed decisions match unwindowed ones.
func (t *Tree) PrefixValues(tip appendmem.MsgID, k int) []int64 {
	d := t.depthOf(tip)
	if d == 0 {
		return nil
	}
	n := int(d)
	if n > k {
		n = k
	}
	vals := make([]int64, n)
	if n <= len(t.frozenVals) {
		copy(vals, t.frozenVals[:n])
		return vals
	}
	copy(vals, t.frozenVals)
	// Walk the live chain down to the anchor, filling the tail backwards;
	// entries above position n-1 are skipped.
	cur := tip
	for i := int(d) - 1; i >= len(t.frozenVals); i-- {
		b := &t.blocks[int(cur)-t.off]
		if i < n {
			vals[i] = b.value
		}
		cur = b.parent
	}
	return vals
}

// Cached is a reusable index handle for one consumer whose reads of a
// single memory grow monotonically (every View is a prefix of the next —
// the append-memory invariant every protocol loop and analyzer obeys). At
// extends the held index by the view's new suffix instead of rebuilding;
// when handed a view of a different memory or an older prefix (e.g. an
// asynchronous node's stale append view) it falls back to a from-scratch
// Build, so it is always correct and only *fast* in the monotone case.
//
// The zero value is not ready; use NewCached. A nil *Cached is a valid
// stateless handle: its At builds from scratch on every call and its
// Floor and CompactTo return 0. A Cached must not be shared across
// goroutines.
type Cached struct {
	t *Tree
}

// NewCached returns an empty handle; the first At builds the index.
func NewCached() *Cached { return &Cached{} }

// At returns the index of view, extending the previously returned index
// when view is a forward read of the same memory. The returned Tree is
// owned by the handle and is invalidated (re-pointed at a larger view) by
// the next At call. On a nil handle At is Build.
func (c *Cached) At(view appendmem.View) *Tree {
	if c == nil {
		return Build(view)
	}
	if c.t != nil && c.t.view.SubsetOf(view) {
		c.t.Extend(view)
		return c.t
	}
	c.t = Build(view)
	return c.t
}

// Floor returns the smallest id the handle may still touch on its next At
// or append decision: the minimum of the held index's tip floor and its
// built size (an Extend reads the memory from there). 0 on a nil handle
// or before the first At — such a consumer would Build from id 0, so
// nothing may be retired under it.
func (c *Cached) Floor() int {
	if c == nil || c.t == nil {
		return 0
	}
	f := c.t.built
	if tf := c.t.TipFloor(); tf >= 0 && int(tf) < f {
		f = int(tf)
	}
	return f
}

// CompactTo forwards Compact(reqW) to the held index and returns the
// watermark achieved; 0 on a nil handle or when no index exists yet.
func (c *Cached) CompactTo(reqW int) int {
	if c == nil || c.t == nil {
		return 0
	}
	return c.t.Compact(reqW)
}
