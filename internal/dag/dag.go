// Package dag implements the BlockDAG structure of Section 5.3: appended
// messages reference *all* latest seen appends ("childless states"), forming
// a directed acyclic graph rooted at a virtual genesis.
//
// Ordering a DAG requires a pivot rule; the paper names two (Algorithm 6's
// correctness "is based on one of the tie-breaking rules"):
//
//   - GHOST (Sompolinsky & Zohar [22]): descend the selected-parent tree
//     into the child with the heaviest subtree.
//   - Longest chain (Conflux pivot [14]): follow the longest selected-parent
//     chain.
//
// Each block's first parent is its *selected parent*; the selected-parent
// edges form a tree embedded in the DAG over which both pivot rules walk.
// Given a pivot chain, Linearize produces the total order of Algorithm 6
// Line 9: pivot blocks in order, each preceded by the not-yet-ordered
// blocks of its past cone ("epoch"), topologically sorted with a
// deterministic tie-break. The linearization is a linear extension of the
// DAG's ancestry partial order and identical for identical views — the two
// properties Byzantine agreement on the DAG rests on.
//
// The order up to pivot block pⱼ depends only on p₁..pⱼ: past cones never
// change once a block is appended, and later blocks carry larger ids, so
// they are never ancestors of ordered ones. A Dag therefore keeps its last
// linearization across calls and Extends, and each call re-orders only the
// epochs after the longest pivot prefix it shares with the previous one.
//
// # Incremental indexing
//
// A Dag is a dense-slice index over the view's MsgID space (IDs are the
// contiguous 0..Size-1 arrival prefix of one append-only Memory, and
// parents always carry smaller IDs than their children). Build constructs
// the index from scratch; Extend ingests only the blocks appended since the
// previous view, keeping every derived quantity — depth, selected-parent
// tree depth, GHOST subtree weights and their per-parent tie-state, the tip
// set, both pivot anchors — incrementally correct. An Extend batch costs
// O(parents) per new block plus one pass that carries the batch's GHOST
// weights up the selected-parent tree, touching each older ancestor once
// per batch: O(blocks + tree depth) per batch instead of the O(view) full
// rebuild, and a from-scratch Build is O(V). A consumer that re-reads a
// growing memory every step (see Cached) pays for the new blocks and one
// walk to the compaction anchor per read, not for the history below it
// once per block. Repeated orderings of a growing view (see Linearize)
// pay only for the epochs whose pivot blocks changed.
package dag

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/appendmem"
)

// Dag indexes the multi-parent structure of a view. Blocks with any parent
// reference outside the view are dangling and excluded (with the append
// memory this needs a malformed reference, since parents always precede
// children). All per-block data lives in one record per block, indexed by
// MsgID minus the compaction origin `off`. The index keeps only what the
// pivot rules and the orderings read: no child lists (tips come from the
// parent edges, and every traversal walks towards the genesis).
//
// Once compaction is engaged the index caches parents, values and
// (author, seq), so every query is answered from the index alone: a
// windowed memory may retire messages the index still holds live, and the
// traversals must not read them back.
type Dag struct {
	view  appendmem.View
	built int // number of view-prefix blocks ingested
	size  int // non-dangling blocks, including frozen ones

	off    int     // first live id; blocks index id-off
	blocks []block // by id-off
	// rootBest is the ghostBest slot of the virtual genesis (appendmem.None)
	// or, after a Compact, of the anchor block off-1: the pivot walks'
	// starting point.
	rootBest appendmem.MsgID

	// Structure caches, materialized by the first Compact and maintained
	// by extend from then on: a windowed memory may retire messages the
	// index still answers for, so a compacting index must never re-read
	// the view. Until then traversals read the view directly and the
	// caches cost nothing — the unbounded path carries no windowed
	// overhead.
	tracking  bool
	parents   [][]appendmem.MsgID // by id-off: all parent refs, spans into parArena
	value     []int64             // by id-off: block value
	authorSeq []int64             // by id-off: author<<32|seq, the linearize tie-break key
	parArena  []appendmem.MsgID   // current parent-span arena block

	height int

	// weightSteps counts the weight updates propagate made, one per
	// block-weight addition: the index's deterministic work count.
	weightSteps int

	// Longest selected-parent chain anchor: the earliest-arrived deepest
	// tree block (LongestPivot's tie-break), maintained on Extend.
	bestTreeTip   appendmem.MsgID
	bestTreeDepth int32

	// tips is the current childless set in ascending id (= arrival) order.
	tips []appendmem.MsgID

	// Frozen-prefix state: the linearized values of the blocks at or below
	// the anchor (a shared prefix of both pivot rules' orders — see
	// Compact) and the anchor's selected-parent tree depth.
	frozenVals      []int64
	anchorTreeDepth int32

	// Epoch counters for the blocks' visited/ordered stamps, and scratch
	// buffers the traversals reuse.
	visitEpoch   uint64
	orderedEpoch uint64
	dfsStack     []appendmem.MsgID
	epochBuf     []appendmem.MsgID

	// The linearization cache: the last order linearize produced, one mark
	// per pivot block it ordered, oldest first. A block's ordered stamp
	// equals orderedEpoch iff orderBuf holds it, so bumping orderedEpoch
	// (as Compact does) with the slices emptied drops the cache.
	orderBuf []appendmem.MsgID
	marks    []orderMark

	// placed counts the ids linearizations placed since Build or Reset:
	// the ordering's deterministic work count.
	placed int
}

// orderMark records one epoch of the cached linearization: its pivot
// block and the order's length once the epoch is placed.
type orderMark struct {
	pivot appendmem.MsgID
	end   int
}

// block is the index's record of one id; a dangling block keeps the
// record extend appends (not inDag, zero depths).
type block struct {
	depth     int32 // longest all-parent path; genesis children = 1
	treeDepth int32 // selected-parent tree depth
	weight    int32 // selected-parent subtree size
	inDag     bool
	parent    appendmem.MsgID // selected parent, cached to avoid Message lookups on hot walks
	ghostBest appendmem.MsgID // earliest heaviest selected-parent kid; None when childless

	// Epoch stamps: the block is visited (ordered) in the current
	// traversal iff its stamp equals the Dag's visitEpoch (orderedEpoch),
	// so clearing between traversals is a counter increment, not an O(V)
	// wipe.
	visited, ordered uint64
}

// SelectedParent returns the block's selected parent: Parents[0], or None
// for genesis children.
func SelectedParent(msg *appendmem.Message) appendmem.MsgID {
	if len(msg.Parents) == 0 {
		return appendmem.None
	}
	return msg.Parents[0]
}

// Build indexes the DAG of view from scratch.
func Build(view appendmem.View) *Dag {
	d := &Dag{blocks: make([]block, 0, view.Size())}
	d.Reset(view)
	return d
}

// Reset re-points d at view, which may belong to another memory, and
// indexes it from scratch, keeping the storage of earlier builds: a pooled
// index reused across prefixes or trials allocates nothing once warm.
func (d *Dag) Reset(view appendmem.View) {
	*d = Dag{
		view:        view,
		blocks:      d.blocks[:0],
		rootBest:    appendmem.None,
		bestTreeTip: appendmem.None,
		tips:        d.tips[:0],
		frozenVals:  d.frozenVals[:0],
		// New block records carry ordered stamp 0, so epoch 1 marks none:
		// the linearization cache starts empty.
		orderedEpoch: 1,
		dfsStack:     d.dfsStack[:0],
		epochBuf:     d.epochBuf[:0],
		orderBuf:     d.orderBuf[:0],
		marks:        d.marks[:0],
	}
	d.extend(view.Size())
}

// Extend ingests the blocks appended between the Dag's current view and
// view, which must be a later read of the same memory (the Dag's view is a
// prefix of it). All queries afterwards answer for the extended view. It
// panics when view is not an extension.
func (d *Dag) Extend(view appendmem.View) {
	if !d.view.SubsetOf(view) {
		panic("dag: Extend with a view that does not extend the indexed one")
	}
	d.view = view
	d.extend(view.Size())
}

// Parent-span arena geometry, mirroring the append memory's: blocks
// double from parArenaBase up to parArenaMax, so interning a block's
// parents amortizes to zero allocations.
const (
	parArenaBase = 64
	parArenaMax  = 16384
)

// internParents copies ps into the index-owned arena and returns the
// span. The index must answer traversals without reading the memory —
// a windowed memory may retire messages the index still holds live.
func (d *Dag) internParents(ps []appendmem.MsgID) []appendmem.MsgID {
	if len(ps) == 0 {
		return nil
	}
	if cap(d.parArena)-len(d.parArena) < len(ps) {
		c := cap(d.parArena) * 2
		if c < parArenaBase {
			c = parArenaBase
		}
		if c > parArenaMax {
			c = parArenaMax
		}
		if len(ps) > c {
			c = len(ps)
		}
		d.parArena = make([]appendmem.MsgID, 0, c)
	}
	start := len(d.parArena)
	d.parArena = append(d.parArena, ps...)
	return d.parArena[start:len(d.parArena):len(d.parArena)]
}

// track materializes the parents/value/authorSeq caches from the view.
// Called by the first Compact, which always precedes any memory
// retirement (the harness compacts indexes before retiring chunks), so
// every built id is still readable here. Dangling blocks keep zero slots,
// exactly as a tracking extend would have left them.
func (d *Dag) track() {
	if d.tracking {
		return
	}
	d.tracking = true
	d.parents = make([][]appendmem.MsgID, d.built-d.off)
	d.value = make([]int64, d.built-d.off)
	d.authorSeq = make([]int64, d.built-d.off)
	for id := appendmem.MsgID(d.off); int(id) < d.built; id++ {
		idx := int(id) - d.off
		if !d.blocks[idx].inDag {
			continue
		}
		msg := d.view.Message(id)
		d.parents[idx] = d.internParents(msg.Parents)
		d.value[idx] = msg.Value
		d.authorSeq[idx] = int64(msg.Author)<<32 | int64(msg.Seq)
	}
}

// parentsOf returns the parent refs of a built block, from the cache when
// compaction is engaged and from the view otherwise.
func (d *Dag) parentsOf(id appendmem.MsgID) []appendmem.MsgID {
	if d.tracking {
		return d.parents[int(id)-d.off]
	}
	return d.view.Message(id).Parents
}

// valueOf is parentsOf's counterpart for the block value.
func (d *Dag) valueOf(id appendmem.MsgID) int64 {
	if d.tracking {
		return d.value[int(id)-d.off]
	}
	return d.view.Message(id).Value
}

// authorSeqOf is parentsOf's counterpart for the linearize tie-break key.
func (d *Dag) authorSeqOf(id appendmem.MsgID) int64 {
	if d.tracking {
		return d.authorSeq[int(id)-d.off]
	}
	msg := d.view.Message(id)
	return int64(msg.Author)<<32 | int64(msg.Seq)
}

// extend ingests ids [d.built, size) as one batch: each block's own record
// (depth, tips, tree depth, selected parent, unit weight) in arrival order,
// then one propagate pass for the GHOST weights of the whole batch.
func (d *Dag) extend(size int) {
	for id := appendmem.MsgID(d.built); int(id) < size; id++ {
		msg := d.view.Message(id)
		ok := true
		var maxDepth int32
		for _, p := range msg.Parents {
			if p == appendmem.None {
				continue
			}
			if int(p) < d.off || !d.blocks[int(p)-d.off].inDag {
				ok = false // dangling: parent invisible, dangling or frozen away
				break
			}
			maxDepth = max(maxDepth, d.blocks[int(p)-d.off].depth)
		}
		// Grow the per-id slots (zero values = dangling).
		d.blocks = append(d.blocks, block{parent: appendmem.None, ghostBest: appendmem.None})
		if d.tracking {
			d.parents = append(d.parents, nil)
			d.value = append(d.value, 0)
			d.authorSeq = append(d.authorSeq, 0)
		}
		if !ok {
			continue
		}
		b := &d.blocks[len(d.blocks)-1]
		b.inDag = true
		d.size++
		b.depth = maxDepth + 1
		if d.tracking {
			idx := len(d.blocks) - 1
			d.parents[idx] = d.internParents(msg.Parents)
			d.value[idx] = msg.Value
			d.authorSeq[idx] = int64(msg.Author)<<32 | int64(msg.Seq)
		}
		d.height = max(d.height, int(b.depth))
		// Tip maintenance: every referenced parent stops being childless,
		// the new block becomes the (largest-id) tip.
		for _, p := range msg.Parents {
			if p != appendmem.None {
				d.dropTip(p)
			}
		}
		d.tips = append(d.tips, id)

		// Selected-parent tree: attach with unit weight; propagate carries
		// the batch's weights up the tree once the whole batch is in.
		sp := SelectedParent(msg)
		b.parent = sp
		b.treeDepth = 1
		if sp != appendmem.None {
			b.treeDepth = d.blocks[int(sp)-d.off].treeDepth + 1
		}
		if b.treeDepth > d.bestTreeDepth {
			d.bestTreeDepth, d.bestTreeTip = b.treeDepth, id
		}
		b.weight = 1
	}
	from := d.built
	d.built = size
	d.propagate(from)
}

// propagate adds the weights of the batch [from, d.built) to the
// selected-parent tree and re-establishes every affected ghostBest slot, in
// one pass per batch rather than one path walk per block. The new ids are
// visited in descending order: a kid's id exceeds its parent's, so a
// block's weight is final when it hands it on — an in-batch parent's record
// accumulates it directly, an older parent gets a carry. The carries then
// drain largest id first, merging on equal ids, so each older ancestor is
// updated once per batch. The carries stop at the compaction anchor: the
// frozen pivot prefix no longer competes, so its weights need not stay
// current. Every block whose weight changed is handed to bumpGhostBest
// once, at its final weight, which keeps the slots exact.
func (d *Dag) propagate(from int) {
	// Pending carries, id<<32|delta in ascending id order. The frontier is a
	// handful of ids, so it lives on the stack; a wider one spills to the
	// heap.
	var buf [16]appendmem.MsgID
	pend := buf[:0]
	for id := appendmem.MsgID(d.built - 1); int(id) >= from; id-- {
		b := &d.blocks[int(id)-d.off]
		if !b.inDag {
			continue
		}
		d.bumpGhostBest(b.parent, id)
		switch p := b.parent; {
		case int(p) >= from:
			d.blocks[int(p)-d.off].weight += b.weight
			d.weightSteps++
		case int(p) >= d.off:
			pend = addCarry(pend, p, b.weight)
		}
	}
	for len(pend) > 0 {
		top := pend[len(pend)-1]
		pend = pend[:len(pend)-1]
		delta := int32(top)
		// Walk directly while the path stays above every pending carry.
		for p := top >> 32; ; {
			pb := &d.blocks[int(p)-d.off]
			pb.weight += delta
			d.weightSteps++
			d.bumpGhostBest(pb.parent, p)
			if p = pb.parent; int(p) < d.off {
				break
			}
			if len(pend) > 0 && p <= pend[len(pend)-1]>>32 {
				pend = addCarry(pend, p, delta)
				break
			}
		}
	}
}

// addCarry adds delta to p's carry in pend (ascending by id), inserting
// one when p has none.
func addCarry(pend []appendmem.MsgID, p appendmem.MsgID, delta int32) []appendmem.MsgID {
	i, found := slices.BinarySearchFunc(pend, p, func(e, id appendmem.MsgID) int { return cmp.Compare(e>>32, id) })
	if found {
		pend[i] += appendmem.MsgID(delta)
		return pend
	}
	return slices.Insert(pend, i, p<<32|appendmem.MsgID(delta))
}

// dropTip removes p from the tip set; no-op when p is not a tip.
func (d *Dag) dropTip(p appendmem.MsgID) {
	for i, t := range d.tips {
		if t == p {
			d.tips = append(d.tips[:i], d.tips[i+1:]...)
			return
		}
	}
}

// bestSlot returns p's ghostBest slot: rootBest for the genesis (None)
// or, after a Compact, the anchor off-1; nil for a fresh root's None
// parent after a Compact, which has no slot.
func (d *Dag) bestSlot(p appendmem.MsgID) *appendmem.MsgID {
	switch i := int(p) - d.off; {
	case i >= 0:
		return &d.blocks[i].ghostBest
	case i == -1:
		return &d.rootBest
	}
	return nil
}

// bumpGhostBest re-establishes "p's ghostBest is the earliest-arrived
// maximum-weight selected-parent kid of p" after kid's weight grew (or kid
// arrived). Weights only grow, so one comparison against the current best
// suffices as long as every kid whose weight grew is compared after its
// last growth; a tie goes to the earlier arrival, matching the
// from-scratch arrival-order scan. A best whose weight is still to grow is
// compared again once it has (see propagate; DESIGN.md §7 has the
// argument).
func (d *Dag) bumpGhostBest(p, kid appendmem.MsgID) {
	slot := d.bestSlot(p)
	if slot == nil || *slot == kid {
		return
	}
	cur := *slot
	if cur == appendmem.None {
		*slot = kid
		return
	}
	wk, wc := d.blocks[int(kid)-d.off].weight, d.blocks[int(cur)-d.off].weight
	if wk > wc || (wk == wc && kid < cur) {
		*slot = kid
	}
}

// WeightSteps returns the number of block-weight updates the index made
// since Build: O(blocks + batches × tree depth), never O(blocks × depth).
// It is deterministic, so tests can bound the weight work of a stream.
func (d *Dag) WeightSteps() int { return d.weightSteps }

// Ordered returns the number of ids the index's linearizations placed
// since Build or Reset. A call re-places only the epochs after the pivot
// prefix it shares with the previous call, so on a growing view this
// stays near the number of blocks ordered, not calls × order length. It
// is deterministic, so tests can bound the ordering work of a run.
func (d *Dag) Ordered() int { return d.placed }

// Indexed returns the number of view-prefix blocks the Dag has ingested
// since Build or Reset: the size of the view it answers for, and its
// deterministic ingest count.
func (d *Dag) Indexed() int { return d.built }

// Size returns the number of non-dangling blocks.
func (d *Dag) Size() int { return d.size }

// Height returns the longest all-parent path length from genesis.
func (d *Dag) Height() int { return d.height }

// belowWatermark panics for ids frozen away by Compact.
func (d *Dag) belowWatermark(id appendmem.MsgID) {
	if id >= 0 && int(id) < d.off {
		panic(fmt.Sprintf("dag: query for id %d below watermark %d", id, d.off))
	}
}

// Contains reports whether the block is in the DAG (visible, well-formed).
// It panics for blocks frozen below the compaction watermark.
func (d *Dag) Contains(id appendmem.MsgID) bool {
	d.belowWatermark(id)
	return id >= 0 && int(id) < d.built && d.blocks[int(id)-d.off].inDag
}

// Depth returns the block's depth (genesis children have depth 1) and
// whether it is in the DAG. It panics below the compaction watermark.
func (d *Dag) Depth(id appendmem.MsgID) (int, bool) {
	if !d.Contains(id) {
		return 0, false
	}
	return int(d.blocks[int(id)-d.off].depth), true
}

// Weight returns the selected-parent subtree size of the block (the GHOST
// weight), or 0 when absent. It panics below the compaction watermark.
// Live weights stay exact across Compact: a block's subtree holds only
// blocks with larger ids, which retirement never touches.
func (d *Dag) Weight(id appendmem.MsgID) int {
	if !d.Contains(id) {
		return 0
	}
	return int(d.blocks[int(id)-d.off].weight)
}

// Tips returns the blocks with no children over any parent edge — the set
// C of "last states which do not have child nodes" that Algorithm 6 Line 5
// references — in arrival order.
func (d *Dag) Tips() []appendmem.MsgID {
	if len(d.tips) == 0 {
		return nil
	}
	return append([]appendmem.MsgID(nil), d.tips...)
}

// GhostPivot returns the pivot chain chosen by the GHOST rule: from the
// genesis, repeatedly descend into the selected-parent child with the
// largest subtree weight, breaking ties by arrival order. Oldest first;
// empty for an empty DAG. The heaviest-kid choice is maintained
// incrementally on Extend, so retrieval is O(pivot length).
// After a Compact the walk starts at the anchor (rootBest) and the
// returned chain is the live pivot segment; the frozen prefix is fixed and
// already folded into OrderedValues. The pivot is no deeper than the
// deepest tree block, so the walk allocates once.
func (d *Dag) GhostPivot() []appendmem.MsgID {
	if d.rootBest == appendmem.None {
		return nil
	}
	pivot := make([]appendmem.MsgID, 0, d.bestTreeDepth-d.anchorTreeDepth)
	for best := d.rootBest; best != appendmem.None; best = d.blocks[int(best)-d.off].ghostBest {
		pivot = append(pivot, best)
	}
	return pivot
}

// LongestPivot returns the pivot chain chosen by the longest-chain rule
// over the selected-parent tree, ties by arrival order. Oldest first. The
// deepest tree tip is maintained on Extend, so retrieval is O(pivot
// length).
func (d *Dag) LongestPivot() []appendmem.MsgID {
	if d.bestTreeTip == appendmem.None {
		return nil
	}
	n := int(d.bestTreeDepth - d.anchorTreeDepth)
	pivot := make([]appendmem.MsgID, n)
	cur := d.bestTreeTip
	for i := n - 1; i >= 0; i-- {
		pivot[i] = cur
		cur = d.blocks[int(cur)-d.off].parent
	}
	return pivot
}

// PastCone returns all ancestors of id over all parent edges, including id
// itself, in ascending id order. Empty when id is not in the DAG. The
// traversal reuses the Dag's epoch-stamped scratch, so the only allocation
// is the returned slice.
// After a Compact the cone is truncated at the watermark: frozen
// ancestors are already ordered and no longer enumerable.
func (d *Dag) PastCone(id appendmem.MsgID) []appendmem.MsgID {
	if !d.Contains(id) {
		return nil
	}
	d.visitEpoch++
	e := d.visitEpoch
	d.blocks[int(id)-d.off].visited = e
	stack := append(d.dfsStack[:0], id)
	cone := []appendmem.MsgID{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parentsOf(cur) {
			if p == appendmem.None || int(p) < d.off {
				continue
			}
			if pb := &d.blocks[int(p)-d.off]; pb.visited != e {
				pb.visited = e
				cone = append(cone, p)
				stack = append(stack, p)
			}
		}
	}
	d.dfsStack = stack
	slices.Sort(cone)
	return cone
}

// Linearize returns the total order over the past cone of the pivot tip:
// for each pivot block in order, the blocks of its past cone not ordered by
// earlier pivot blocks ("its epoch"), sorted by (depth, author, seq), with
// the pivot block last in its epoch. Since every ancestor has strictly
// smaller depth, the result is a linear extension of the DAG's ancestry
// order. Blocks outside the pivot tip's past cone are not ordered (they
// will be, once a later pivot block references them). The epochs of the
// pivot prefix shared with the previous ordering are reused (see
// linearize). The returned slice is the caller's copy.
func (d *Dag) Linearize(pivot []appendmem.MsgID) []appendmem.MsgID {
	return slices.Clone(d.linearize(pivot, math.MaxInt))
}

// linearize returns Linearize's order, stopping after the epoch that
// brings it to at least limit ids (the last epoch is ordered whole: the
// positions inside it depend on its full sort), or longer when the cache
// already holds more. The slice is the index's cache, valid until the
// next call.
//
// The cached epochs of the longest common prefix of pivot and the cached
// pivot blocks are kept: the epoch of pⱼ is the past cone of pⱼ minus the
// cones of p₁..pⱼ₋₁, cones never change, and blocks ingested since carry
// larger ids than any ordered block, so they lie in none of the kept
// cones. The epochs after that prefix are dropped and their blocks
// un-stamped; ordering resumes from there. pivot must be a chain, each
// block a descendant of the one before, as the pivot rules return it.
func (d *Dag) linearize(pivot []appendmem.MsgID, limit int) []appendmem.MsgID {
	j := 0
	for j < len(d.marks) && j < len(pivot) && d.marks[j].pivot == pivot[j] {
		j++
	}
	order := d.orderBuf
	if j < len(d.marks) {
		end := 0
		if j > 0 {
			end = d.marks[j-1].end
		}
		for _, id := range order[end:] {
			d.blocks[int(id)-d.off].ordered = 0
		}
		order, d.marks = order[:end], d.marks[:j]
	}
	// One growth covers the marks of the whole pivot.
	d.marks = slices.Grow(d.marks, len(pivot)-j)
	oe := d.orderedEpoch
	for _, pb := range pivot[j:] {
		if len(order) >= limit {
			break
		}
		// Epoch members: ancestors of pb not ordered by earlier pivot
		// blocks. The DFS stops at already-ordered blocks, so each block
		// is visited once across the whole linearization (amortized
		// O(V+E) instead of one full past-cone walk per pivot block).
		// Frozen parents (below the watermark) are by construction inside
		// the anchor's past cone, i.e. ordered by the frozen prefix, so the
		// DFS treats them exactly like earlier-epoch blocks and stops.
		d.visitEpoch++
		ve := d.visitEpoch
		d.blocks[int(pb)-d.off].visited = ve
		epoch := d.epochBuf[:0]
		stack := d.dfsStack[:0]
		for cur := pb; ; {
			for _, p := range d.parentsOf(cur) {
				if p == appendmem.None || int(p) < d.off {
					continue
				}
				if b := &d.blocks[int(p)-d.off]; b.ordered != oe && b.visited != ve {
					b.visited = ve
					stack = append(stack, p)
				}
			}
			if len(stack) == 0 {
				break
			}
			cur = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			epoch = append(epoch, cur)
		}
		d.dfsStack = stack
		// (depth, author<<32|seq) is a strict total order — Seq is unique
		// per author register — so any sort algorithm yields this order.
		slices.SortFunc(epoch, func(a, b appendmem.MsgID) int {
			if c := cmp.Compare(d.blocks[int(a)-d.off].depth, d.blocks[int(b)-d.off].depth); c != 0 {
				return c
			}
			return cmp.Compare(d.authorSeqOf(a), d.authorSeqOf(b))
		})
		for _, id := range epoch {
			d.blocks[int(id)-d.off].ordered = oe
			order = append(order, id)
		}
		d.epochBuf = epoch[:0]
		d.blocks[int(pb)-d.off].ordered = oe
		order = append(order, pb)
		d.placed += len(epoch) + 1
		d.marks = append(d.marks, orderMark{pb, len(order)})
	}
	d.orderBuf = order
	return order
}

// OrderedValues returns the values of the first k blocks in the
// linearization of the given pivot — the decision input of Algorithm 6
// Line 10. Fewer than k when the ordering is shorter. Only the epochs
// covering the first k positions are ordered, and of those only the ones
// after the pivot prefix shared with the previous ordering (see
// linearize), into the index's cache; the returned slice is the only
// allocation. After a Compact the frozen prefix supplies the leading
// values and pivot is the live segment (what GhostPivot/LongestPivot
// return), so decisions are unchanged by retirement.
func (d *Dag) OrderedValues(pivot []appendmem.MsgID, k int) []int64 {
	if k <= len(d.frozenVals) {
		return append([]int64(nil), d.frozenVals[:k]...)
	}
	rest := k - len(d.frozenVals)
	order := d.linearize(pivot, rest)
	order = order[:min(len(order), rest)]
	vals := make([]int64, 0, len(d.frozenVals)+len(order))
	vals = append(vals, d.frozenVals...)
	for _, id := range order {
		vals = append(vals, d.valueOf(id))
	}
	return vals
}

// Watermark returns the compaction watermark: the first id still held
// live. Queries below it panic. 0 before any successful Compact.
func (d *Dag) Watermark() int { return d.off }

// TipFloor returns the smallest id in the childless set, or -1 for an
// empty DAG — the reachability floor windowed retirement takes the
// minimum over, since every future block's parents draw from the current
// tips or newer.
func (d *Dag) TipFloor() appendmem.MsgID {
	if len(d.tips) == 0 {
		return -1
	}
	return d.tips[0]
}

// Compact retires the index prefix below a safe anchor: the deepest
// ghost-pivot block, strictly below both reqW and every current tip, that
// (a) every live block descends from in the selected-parent tree and (b)
// whose past cone contains every live block at or below it. Under (a) both
// pivot rules pass through the anchor forever (its subtree alone keeps
// growing, frozen siblings never catch up), and under (b) the prefix of
// the linearization up to the anchor is fixed, so its values are frozen
// into frozenVals and the dense slices are rebased in place — dropping the
// retired ids' slots and handing the anchor the virtual genesis's
// ghostBest slot, rootBest.
//
// Compact is conservative: when no anchor at or below reqW qualifies
// (e.g. a fork off the deep past is still live), it declines and returns
// the current watermark. The watermark is monotone; ids below it panic.
// Decisions are unaffected: heights, sizes, tips, weights of live blocks,
// fork counts and OrderedValues all answer exactly as the uncompacted
// index would.
func (d *Dag) Compact(reqW int) int {
	d.track()
	if reqW > d.built {
		reqW = d.built
	}
	if reqW <= d.off || d.bestTreeTip == appendmem.None {
		return d.off
	}
	limit := reqW
	if len(d.tips) > 0 && int(d.tips[0]) < limit {
		limit = int(d.tips[0])
	}
	if int(d.bestTreeTip) < limit {
		limit = int(d.bestTreeTip)
	}
	if limit <= d.off {
		return d.off
	}
	// Candidate: deepest ghost-pivot block with id < limit. The pivot path
	// from the old anchor to the candidate is recorded for the freeze step.
	var seg []appendmem.MsgID
	cand := appendmem.None
	for best := d.rootBest; best != appendmem.None && int(best) < limit; best = d.blocks[int(best)-d.off].ghostBest {
		cand = best
		seg = append(seg, best)
	}
	if cand == appendmem.None {
		return d.off
	}
	// (a) Every live block above the candidate must descend from it in the
	// selected-parent tree. Parents precede children, so one ascending
	// marking pass suffices.
	d.visitEpoch++
	e := d.visitEpoch
	d.blocks[int(cand)-d.off].visited = e
	for i := int(cand) + 1 - d.off; i < len(d.blocks); i++ {
		if !d.blocks[i].inDag {
			continue
		}
		sp := d.blocks[i].parent
		if int(sp) < d.off || d.blocks[int(sp)-d.off].visited != e {
			return d.off
		}
		d.blocks[i].visited = e
	}
	// (b) Every live block at or below the candidate must be in its past
	// cone — otherwise the cone walk skipping frozen parents would miss
	// blocks the full linearization orders. Blocks below the old watermark
	// satisfied (b) at their own retirement, so the walk prunes there.
	d.visitEpoch++
	e = d.visitEpoch
	d.blocks[int(cand)-d.off].visited = e
	stack := append(d.dfsStack[:0], cand)
	covered := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parents[int(cur)-d.off] {
			if p == appendmem.None || int(p) < d.off {
				continue
			}
			if pb := &d.blocks[int(p)-d.off]; pb.visited != e {
				pb.visited = e
				covered++
				stack = append(stack, p)
			}
		}
	}
	d.dfsStack = stack[:0]
	live := 0
	for _, b := range d.blocks[:int(cand)+1-d.off] {
		if b.inDag {
			live++
		}
	}
	if covered != live {
		return d.off
	}
	// Freeze: linearize the pivot segment ending at the candidate (reusing
	// the cached epochs of its prefix). By (b) this orders exactly the live
	// blocks at or below it, extending frozenVals by the same values the
	// full index's linearization holds at those positions.
	order := d.linearize(seg, math.MaxInt)
	if len(order) != live {
		panic(fmt.Sprintf("dag: Compact froze %d blocks, expected %d", len(order), live))
	}
	for _, id := range order {
		d.frozenVals = append(d.frozenVals, d.value[int(id)-d.off])
	}
	anchor := d.blocks[int(cand)-d.off]
	d.anchorTreeDepth = anchor.treeDepth
	d.rootBest = anchor.ghostBest

	// Rebase the dense slices in place: the records up to the anchor
	// drop out, the live ones shift to the front.
	shift := int(cand) + 1 - d.off
	d.blocks = d.blocks[:copy(d.blocks, d.blocks[shift:])]
	d.parents = d.parents[:copy(d.parents, d.parents[shift:])]
	d.value = d.value[:copy(d.value, d.value[shift:])]
	d.authorSeq = d.authorSeq[:copy(d.authorSeq, d.authorSeq[shift:])]
	d.off = int(cand) + 1
	// The cache holds the frozen order, now below the watermark: drop it,
	// un-stamping every cached block at once. The live pivot segment
	// starts afresh.
	d.orderedEpoch++
	d.orderBuf, d.marks = d.orderBuf[:0], d.marks[:0]
	return d.off
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
	d *Dag
}

// NewCached returns an empty handle; the first At builds the index.
func NewCached() *Cached { return &Cached{} }

// At returns the index of view, extending the previously returned index
// when view is a forward read of the same memory. The returned Dag is
// owned by the handle and is invalidated (re-pointed at a larger view) by
// the next At call. On a nil handle At is Build.
func (c *Cached) At(view appendmem.View) *Dag {
	if c == nil {
		return Build(view)
	}
	if c.d != nil && c.d.view.SubsetOf(view) {
		c.d.Extend(view)
		return c.d
	}
	c.d = Build(view)
	return c.d
}

// Floor returns the smallest id the handle's future extensions or appends
// can reach: the minimum of the built prefix (extensions read from there)
// and the tip floor (parents draw from the tips). 0 on a nil handle or
// before the first At.
func (c *Cached) Floor() int {
	if c == nil || c.d == nil {
		return 0
	}
	f := c.d.built
	if tf := c.d.TipFloor(); tf >= 0 && int(tf) < f {
		f = int(tf)
	}
	return f
}

// CompactTo forwards Compact(reqW) to the held index and returns the
// watermark achieved; 0 on a nil handle or when no index exists yet.
func (c *Cached) CompactTo(reqW int) int {
	if c == nil || c.d == nil {
		return 0
	}
	return c.d.Compact(reqW)
}
