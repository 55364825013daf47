// Package stickybit implements the sticky-bit shared object of Plotkin
// (and of Malkhi et al., the paper's reference [16]) and verifies — by
// exhaustive exploration of all schedules — that it solves 1-resilient
// binary consensus, for any number of nodes.
//
// This is the contrast the paper draws in Sections 1 and 1.3: "the append
// memory is not as strong as the concept of sticky bits, since it does not
// make use of registers that implicitly solve consensus for two parallel
// writes". A sticky bit retains the FIRST value ever written; two
// concurrent writes are implicitly ordered by the object, so the object's
// consensus number is unbounded. The append memory deliberately withholds
// this power (two concurrent appends both land, unordered), which is why
// Theorem 2.1 applies to it while the trivial sticky-bit protocol below is
// a correct consensus algorithm.
//
// The verifier shares internal/bivalence's configuration-graph explorer
// (internal/explore): node programs are deterministic (write your input to
// the bit, read it, decide what you read); only the scheduler chooses
// interleavings; the whole graph is explored and every property checked on
// every reachable configuration, including all crash (v-free) variants.
package stickybit

import (
	"math"

	"repro/internal/explore"
)

// Bit is a sticky bit: Write succeeds only while the bit is unset; Read
// returns the retained value. The zero value is an unset bit.
type Bit struct {
	set bool
	val int
}

// Write sets the bit to v if it is unset and reports whether this write
// stuck. Concurrent writers are implicitly ordered: exactly one sticks.
func (b *Bit) Write(v int) bool {
	if b.set {
		return false
	}
	b.set = true
	b.val = v
	return true
}

// Read returns (value, true) when the bit is set, (0, false) otherwise.
func (b *Bit) Read() (int, bool) {
	return b.val, b.set
}

// IsSet reports whether some write has stuck.
func (b *Bit) IsSet() bool { return b.set }

// The consensus protocol: each node (phase 0) writes its input to the
// bit, then (phase 1) reads it and decides the retained value.

type phase int

const (
	phaseWrite phase = iota
	phaseRead
	phaseDone
)

type nodeState struct {
	phase    phase
	input    int
	decision int
}

// config is one configuration of the exhaustive exploration: the bit
// state plus every node's local state; nodes beyond the node count stay
// zero. Value semantics; comparable.
type config struct {
	bitSet bool
	bitVal int
	nodes  [maxNodes]nodeState
}

// maxNodes bounds the exhaustive verifier; schedules grow super-
// exponentially, so this stays small (the consensus-number argument only
// needs n = 2 anyway).
const maxNodes = 4

// step advances node i by one deterministic operation and returns the
// successor (self for done nodes).
func (c config) step(i int) config {
	s := c.nodes[i]
	switch s.phase {
	case phaseWrite:
		if !c.bitSet {
			c.bitSet, c.bitVal = true, s.input
		}
		c.nodes[i].phase = phaseRead
	case phaseRead:
		// The bit is necessarily set: this node wrote in its previous step.
		c.nodes[i].decision = c.bitVal
		c.nodes[i].phase = phaseDone
	}
	return c
}

// Report is the outcome of the exhaustive verification.
type Report struct {
	N              int
	Configurations int
	Agreement      bool // all deciders agree, in every reachable config
	Validity       bool // unanimous inputs force that decision
	Termination    bool // 1-resilient: in every v-free run all others decide
}

// OK reports whether the object solves 1-resilient consensus.
func (r Report) OK() bool { return r.Agreement && r.Validity && r.Termination }

// Verify exhaustively explores every schedule of the sticky-bit consensus
// protocol for all 2^n input assignments and checks the three consensus
// properties, including every single-crash (v-free) variant. It panics for
// n outside [2, maxNodes].
func Verify(n int) Report {
	if n < 2 || n > maxNodes {
		panic("stickybit: Verify supports 2..4 nodes")
	}
	return verify(n, config.step)
}

// verify checks the consensus properties of the node programs that step
// runs, over every input assignment of n nodes.
func verify(n int, step func(config, int) config) Report {
	rep := Report{N: n, Agreement: true, Validity: true, Termination: true}
	for bits := 0; bits < 1<<uint(n); bits++ {
		var init config
		allSame := true
		for i := 0; i < n; i++ {
			init.nodes[i] = nodeState{phase: phaseWrite, input: (bits >> uint(i)) & 1}
			if init.nodes[i].input != init.nodes[0].input {
				allSame = false
			}
		}

		// The state space is finite, so the graph is never truncated.
		g := explore.Explore(init, n, step, math.MaxInt)
		rep.Configurations += g.Size()

		// Agreement and validity on every reachable configuration.
		for c := 0; c < g.Size(); c++ {
			nodes := g.Config(c).nodes
			first, have := 0, false
			for _, s := range nodes[:n] {
				if s.phase != phaseDone {
					continue
				}
				if have && s.decision != first {
					rep.Agreement = false
				}
				first, have = s.decision, true
				if allSame && s.decision != init.nodes[0].input {
					rep.Validity = false
				}
			}
		}

		// 1-resilient termination: no fair v-free computation leaves a
		// node other than v undecided. Every step of an undecided node
		// advances its phase (write, read, done — it never waits on
		// others), so the graph's only cycles are the self-loops of done
		// nodes. A fair strongly connected set is then one configuration
		// in which every node other than v self-loops, i.e. is done: the
		// check finds a violation exactly where a v-free terminal
		// configuration has an undecided node other than v — never, for
		// this wait-free program.
		for v := 0; v < n; v++ {
			stuck := func(c int) bool {
				nodes := g.Config(c).nodes
				for i, s := range nodes[:n] {
					if i != v && s.phase != phaseDone {
						return true
					}
				}
				return false
			}
			if g.FairCycle(v, stuck) >= 0 {
				rep.Termination = false
			}
		}
	}
	return rep
}
