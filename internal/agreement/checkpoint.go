// Pre-decision trial checkpoints. Opt-in: with CheckpointSink and
// ResumeFrom nil a run never captures or restores.
package agreement

import (
	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Checkpoint is a resumable snapshot of a run, captured immediately before
// the first decision commits: the cloned memory, the virtual clock, the
// authority's pending grant, and the position of every rng stream. At that
// instant no node has decided, so two runs differing only in confirmation
// depth (or any knob that can only postpone decisions) have evolved
// identically — resuming the deeper run from the shallower run's
// checkpoint replays the exact suffix a from-scratch run would produce,
// skipping the shared prefix.
//
// A Checkpoint is immutable after capture: every resume clones the memory
// again, so one checkpoint serves many sweep points, concurrently.
type Checkpoint struct {
	Mem    *appendmem.Memory
	Now    sim.Time
	Grants int

	// AuthoritySeq and AuthorityAt restart grant numbering and the pending
	// grant instant; the inter-arrival draw behind AuthorityAt was already
	// consumed, which is why the authority rng state alone is not enough.
	AuthoritySeq int
	AuthorityAt  sim.Time

	AuthorityRng xrand.State
	AdversaryRng xrand.State
	NodeRngs     []xrand.State

	CrashAt   []sim.Time
	ReadAt    []sim.Time
	ViewSizes []int
}

// capture hands the sink a snapshot of the run and disarms it. It is
// taken inside the first deciding node's read event but represents the
// state just before that event fired: the node's rng is pre (its state
// before Decide; the resumed run replays the event, re-consuming those
// draws), its pending read is still at the event's own instant, and no
// decision has been recorded anywhere.
func (r *run) capture(id appendmem.NodeID, pre xrand.State) {
	n := len(r.nodes)
	cp := &Checkpoint{
		Mem:          r.mem.Clone(),
		Now:          r.sim.Now(),
		Grants:       r.result.Grants,
		AuthoritySeq: r.authority.Issued(),
		AuthorityAt:  r.authority.NextAt(),
		AuthorityRng: r.rngAuthority.State(),
		AdversaryRng: r.rngAdversary.State(),
		NodeRngs:     make([]xrand.State, n),
		CrashAt:      make([]sim.Time, n),
		ReadAt:       make([]sim.Time, n),
		ViewSizes:    make([]int, n),
	}
	for i, nd := range r.nodes {
		cp.NodeRngs[i] = nd.rng.State()
		cp.CrashAt[i], cp.ReadAt[i] = nd.crashAt, nd.readAt
		cp.ViewSizes[i] = nd.view.Size()
	}
	cp.NodeRngs[id] = pre
	sink := r.sink
	r.sink = nil
	sink(cp)
}

// restore fast-forwards a freshly set-up run to cp instead of simulating
// the shared prefix: the clock, a clone of the memory, the grant count,
// every rng stream at the draw it had reached, each node's crash time,
// pending read and view, and the authority's pending grant. The set-up's
// own root draws (crash times, read phases) are overwritten.
func (r *run) restore(cp *Checkpoint) {
	r.sim.StartAt(cp.Now)
	r.mem = cp.Mem.Clone()
	r.result.Grants = cp.Grants
	r.rngAuthority = *xrand.Restore(cp.AuthorityRng)
	r.rngAdversary = *xrand.Restore(cp.AdversaryRng)
	for i := range r.nodes {
		nd := &r.nodes[i]
		nd.rng = *xrand.Restore(cp.NodeRngs[i])
		nd.crashAt, nd.readAt = cp.CrashAt[i], cp.ReadAt[i]
		nd.view = r.mem.ViewAt(cp.ViewSizes[i])
	}
	r.authority.ResumeAt(cp.AuthoritySeq, cp.AuthorityAt)
}
