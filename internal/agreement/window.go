// Windowed retirement of the append memory. Opt-in: with Window at zero a
// run consumes no randomness and schedules no events for it.
package agreement

import (
	"fmt"
	"math"

	"repro/internal/appendmem"
	"repro/internal/sim"
)

// WindowedRule is implemented by per-node rule instances that can bound
// and retire their reachable prefix. ViewFloor returns the smallest id the
// node's future appends or index extensions can touch (min of the cached
// indexes' built sizes and tip floors — both monotone, so a floor once
// reported stays safe). CompactTo retires index state below w, returning
// the watermark achieved (indexes may decline conservatively).
//
// The harness retires memory chunks only below the minimum floor over all
// appending parties, so a rule that never implements this simply disables
// windowed mode for its protocol.
type WindowedRule interface {
	ViewFloor() int
	CompactTo(w int) int
}

// WindowedAdversary is the adversary-side counterpart of WindowedRule.
type WindowedAdversary interface {
	ViewFloor() int
	CompactTo(w int)
}

// AppendWindowed is optionally implemented by rules whose append path
// bounds its reachable prefix independently of the decision path. A
// fresh-reading adversary (ValueFlip) drives only Append, so its floor is
// the append-side floor alone — the decision-side cache it never touches
// would otherwise pin the combined ViewFloor at 0 and disable retirement.
type AppendWindowed interface {
	AppendFloor() int
	CompactAppendTo(w int) int
}

// ViewFloor implements WindowedAdversary: a silent adversary never reads
// or appends, so it bounds nothing.
func (Silent) ViewFloor() int { return math.MaxInt }

// CompactTo implements WindowedAdversary.
func (Silent) CompactTo(int) {}

// ViewFloor implements WindowedAdversary by delegating to the flip rule's
// append-side cache: the adversary reads fresh and never decides.
func (a *ValueFlip) ViewFloor() int {
	if aw, ok := a.rule.(AppendWindowed); ok {
		return aw.AppendFloor()
	}
	if wr, ok := a.rule.(WindowedRule); ok {
		return wr.ViewFloor()
	}
	return 0
}

// CompactTo implements WindowedAdversary.
func (a *ValueFlip) CompactTo(w int) {
	if aw, ok := a.rule.(AppendWindowed); ok {
		aw.CompactAppendTo(w)
		return
	}
	if wr, ok := a.rule.(WindowedRule); ok {
		wr.CompactTo(w)
	}
}

// windowChunk sizes the fixed slab chunks of a windowed memory: an eighth
// of the window (clamped) so retirement reclaims in steps much smaller
// than the live window itself.
func windowChunk(window int) int {
	c := window / 8
	if c < 64 {
		c = 64
	}
	if c > 4096 {
		c = 4096
	}
	return c
}

// windowed arms retirement for a run: every party that can still append
// must expose a reachability floor, or no retirement bound exists. A
// shared windowed run rule answers for every correct node.
func (r *run) windowed(rule HonestRule) error {
	for _, nd := range r.nodes {
		if _, ok := nd.rule.(WindowedRule); nd.rule != nil && !ok && r.winShared == nil {
			return fmt.Errorf("agreement: window requires a rule with reachability floors; %T has none", rule)
		}
	}
	if r.cfg.T > 0 {
		wa, ok := r.adversary.(WindowedAdversary)
		if !ok {
			return fmt.Errorf("agreement: window requires an adversary with reachability floors; %T has none", r.adversary)
		}
		r.winAdv = wa
	}
	r.retireTick = r.retire
	return nil
}

// retire runs every Δ: take the minimum reachability floor over the
// parties that can still append (decided and dead nodes never append
// again), keep at least Window messages live, compact the indexes to that
// watermark — the correct nodes' one shared index, or each node's own —
// and retire the memory below it.
func (r *run) retire() {
	if r.done {
		return
	}
	mem := r.mem
	w := mem.Len() - r.cfg.Window
	for i := 0; i < len(r.nodes) && w > mem.Watermark(); i++ {
		if id := appendmem.NodeID(i); r.nodes[i].rule != nil && r.alive(id) && !r.outcome.Decided[id] {
			w = min(w, r.floor(&r.nodes[i]))
		}
	}
	if r.winAdv != nil && w > mem.Watermark() {
		w = min(w, r.winAdv.ViewFloor())
	}
	if w > mem.Watermark() {
		if r.winShared != nil {
			r.winShared.CompactTo(w)
		} else {
			for _, nd := range r.nodes {
				if nd.rule != nil {
					nd.rule.(WindowedRule).CompactTo(w)
				}
			}
		}
		if r.winAdv != nil {
			r.winAdv.CompactTo(w)
		}
		mem.Retire(w)
	}
	r.sim.After(sim.Time(r.cfg.Delta), r.retireTick)
}

// floor is the smallest id a live correct node can still touch. On the
// shared index it is the floor at the smaller of the node's last append
// and decide view sizes — both only grow, and the floor is monotone — and
// 0 until the node has done both, as a per-node index that has not yet
// read would build from id 0.
func (r *run) floor(nd *nodeRun) int {
	if r.winShared == nil {
		return nd.rule.(WindowedRule).ViewFloor()
	}
	if nd.appSize < 0 || nd.decSize < 0 {
		return 0
	}
	return r.winShared.FloorAt(min(nd.appSize, nd.decSize))
}
