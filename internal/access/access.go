// Package access implements the memory-access disciplines of the paper:
//
//   - RoundClock: the synchronous setting (§1.1, §3), where every interval
//     between two local operations of a node is bounded by Δ. A round is one
//     communication step with the memory — at most one append and one read
//     per node. Nodes are *not* perfectly aligned: each node carries a fixed
//     sub-Δ jitter on its append and read instants. That residual asynchrony
//     is exactly what the Byzantine lower-bound strategy of Section 3.1
//     exploits (an append placed between two nodes' reads is seen by one
//     node this round and by the other only next round).
//
//   - Authority: the randomized memory access of Section 5. Append access
//     requires a token handed out by an authority; each node's tokens
//     arrive as an independent Poisson process with rate λ per Δ, so the
//     aggregate token stream is Poisson with rate nλ per Δ. Reads are free
//     at any time. This is the paper's clean abstraction of proof-of-work.
//     The same type carries the two variants the experiments need:
//     per-node rates (hashing power) and a burst-free round-robin cadence
//     at the same aggregate rate.
//
// The implementation realizes the n independent processes as one merged
// exponential-clock process (rate nλ/Δ) whose grants are assigned to
// uniformly random nodes — a standard, exactly equivalent construction that
// additionally yields the authority's total arrival order used by the
// timestamp baseline (§5.1).
package access

import (
	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// RoundClock fixes the per-node operation instants of the synchronous
// model. Round r (1-based) occupies virtual time [(r-1)·Δ, r·Δ).
type RoundClock struct {
	Delta float64
	// appendJitter and readJitter are per-node fractions in [0,1) fixed at
	// construction; they encode the bounded asynchrony within a round.
	appendJitter []float64
	readJitter   []float64
}

// Jitter windows as fractions of Δ. Appends happen early in the round,
// reads late; the gap guarantees every correct round-r append is seen by
// every correct round-r read, while leaving room for a Byzantine append to
// land between two different nodes' reads.
const (
	appendWindow = 0.10 // appends occur in [0, 0.10)·Δ after round start
	readStart    = 0.80 // reads occur in [0.80, 0.95)·Δ after round start
	readWindow   = 0.15
)

// NewRoundClock draws fixed per-node jitters from rng and returns the clock
// for n nodes with synchrony bound delta. It panics when n <= 0 or
// delta <= 0.
func NewRoundClock(rng *xrand.PCG, n int, delta float64) *RoundClock {
	if n <= 0 || delta <= 0 {
		panic("access: invalid RoundClock parameters")
	}
	rc := &RoundClock{
		Delta:        delta,
		appendJitter: make([]float64, n),
		readJitter:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		rc.appendJitter[i] = rng.Float64()
		rc.readJitter[i] = rng.Float64()
	}
	return rc
}

// NumNodes returns the number of nodes the clock was built for.
func (rc *RoundClock) NumNodes() int { return len(rc.appendJitter) }

// RoundStart returns the start time of 1-based round r.
func (rc *RoundClock) RoundStart(r int) sim.Time {
	return sim.Time(float64(r-1) * rc.Delta)
}

// AppendTime returns when node id performs its round-r append.
func (rc *RoundClock) AppendTime(id appendmem.NodeID, r int) sim.Time {
	return rc.RoundStart(r) + sim.Time(appendWindow*rc.appendJitter[id]*rc.Delta)
}

// ReadTime returns when node id performs its round-r read. All correct
// round-r appends precede all round-r reads, but different nodes read at
// different instants — the crack a Byzantine append can slip into.
func (rc *RoundClock) ReadTime(id appendmem.NodeID, r int) sim.Time {
	return rc.RoundStart(r) + sim.Time((readStart+readWindow*rc.readJitter[id])*rc.Delta)
}

// ReadDeadline returns the latest read instant of round r across all nodes;
// an append after it is invisible in round r to everyone.
func (rc *RoundClock) ReadDeadline(r int) sim.Time {
	latest := sim.Time(0)
	for i := range rc.readJitter {
		if t := rc.ReadTime(appendmem.NodeID(i), r); t > latest {
			latest = t
		}
	}
	return latest
}

// Grant is one append-permission token.
type Grant struct {
	Node appendmem.NodeID
	At   sim.Time
	Seq  int // position in the authority's total arrival order
}

// Authority hands out append tokens. Its discipline follows from the
// inputs of its last Reset:
//
//   - uniform Poisson (an rng, no rates): each of n nodes receives tokens
//     at rate λ per Δ, so the merged stream has rate nλ/Δ and each grant
//     goes to a uniformly random node;
//   - weighted Poisson (an rng and per-node rates): node i's tokens arrive
//     at rates[i] per Δ, its "hashing power" in the proof-of-work reading.
//     The merged rate is sum(rates)/Δ and a grant goes to node i with
//     probability rates[i]/sum, the standard decomposition of independent
//     Poisson processes. With equal rates it has the uniform discipline's
//     distribution;
//   - round-robin cadence (no rng): grants arrive every Δ/(nλ) and cycle
//     through the nodes, so each node receives exactly λ grants per Δ with
//     zero variance. Same aggregate rate, none of the burstiness: the
//     ablation that separates the Section 5 effects that need Poisson
//     clumping (Lemma 5.5's private bursts) from those that need only the
//     rate (Theorem 5.4's staleness forks).
//
// The zero value is ready for Reset. The grant event is bound on the first
// Reset and kept, so an Authority held by value in pooled state re-arms
// for each new stream without allocating.
type Authority struct {
	s       *sim.Sim
	rng     *xrand.PCG // nil selects the round-robin cadence
	n       int
	rate    float64   // Poisson: merged rate per unit time
	gap     sim.Time  // round-robin: the fixed inter-grant time
	weights []float64 // per-node rates; empty means uniform
	seq     int
	handle  func(Grant)
	active  bool
	nextAt  sim.Time
	tick    func() // fire bound once, so scheduling a grant allocates nothing
}

// Reset readies a for a new stream over n nodes, each receiving tokens at
// rate lambda per delta time units; rates, when non-nil, gives each node
// its own rate instead (len must be n, lambda is ignored). rng drives the
// Poisson disciplines; nil selects the round-robin cadence, which takes no
// rates. handle is invoked at each grant instant, inside s. Call Start to
// begin issuing. No grant of a previous stream may still be pending on s.
// Reset panics on invalid parameters.
func (a *Authority) Reset(s *sim.Sim, rng *xrand.PCG, n int, lambda, delta float64, rates []float64, handle func(Grant)) {
	if n <= 0 || delta <= 0 || (rates == nil && lambda <= 0) {
		panic("access: invalid authority parameters")
	}
	a.weights = a.weights[:0]
	switch {
	case rates != nil:
		if rng == nil || len(rates) != n {
			panic("access: per-node rates need an rng and one rate per node")
		}
		total := 0.0
		for _, r := range rates {
			if r <= 0 {
				panic("access: non-positive per-node rate")
			}
			total += r
		}
		a.rate = total / delta
		a.weights = append(a.weights, rates...)
	case rng != nil:
		a.rate = float64(n) * lambda / delta
	default:
		a.gap = sim.Time(delta / (lambda * float64(n)))
	}
	a.s, a.rng, a.n, a.handle = s, rng, n, handle
	a.seq, a.active, a.nextAt = 0, false, 0
	if a.tick == nil {
		a.tick = a.fire
	}
}

// Start schedules the first grant. Grants continue until Stop (or until the
// simulator stops draining events).
func (a *Authority) Start() {
	if a.active {
		return
	}
	a.active = true
	a.scheduleNext()
}

// Stop ceases issuing grants after any already-scheduled one fires.
func (a *Authority) Stop() { a.active = false }

// Issued returns the number of grants handed out so far.
func (a *Authority) Issued() int { return a.seq }

// NextAt returns the instant of the pending grant — the piece of authority
// state a run checkpoint must capture, since the inter-arrival draw behind
// it was already consumed from the rng.
func (a *Authority) NextAt() sim.Time { return a.nextAt }

// ResumeAt restarts a freshly Reset authority mid-stream: grant numbering
// continues from seq and the pending grant fires at absolute time at. The
// rng must be positioned exactly as at the checkpoint (the at draw is not
// re-consumed).
func (a *Authority) ResumeAt(seq int, at sim.Time) {
	if a.active {
		return
	}
	a.active = true
	a.seq = seq
	a.nextAt = at
	a.s.At(at, a.tick)
}

func (a *Authority) scheduleNext() {
	wait := a.gap
	if a.rng != nil {
		wait = sim.Time(a.rng.Exp(a.rate))
	}
	a.nextAt = a.s.Now() + wait
	a.s.After(wait, a.tick)
}

func (a *Authority) fire() {
	if !a.active {
		return
	}
	node := appendmem.NodeID(a.seq % a.n)
	if a.rng != nil {
		// The weighted draw follows a discarded uniform one: the goldens
		// pin this rng order.
		node = appendmem.NodeID(a.rng.Intn(a.n))
		if len(a.weights) > 0 {
			node = appendmem.NodeID(a.rng.Pick(a.weights))
		}
	}
	g := Grant{Node: node, At: a.s.Now(), Seq: a.seq}
	a.seq++
	a.handle(g)
	a.scheduleNext()
}
