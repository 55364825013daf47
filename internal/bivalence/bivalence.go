// Package bivalence is a bounded model checker for deterministic consensus
// protocols in the append memory, implementing the machinery of Section 2
// of the paper (and of Loui–Abu-Amara, which the paper's proof follows).
//
// A protocol is a deterministic state machine per node: given its state,
// the node's next operation is fixed (a read or an append of a determined
// value); the *scheduler* only chooses which node steps next. This matches
// the paper's event model: read events always apply; append events append
// to the current memory; a read of an unchanged memory leaves the
// configuration unchanged (the self-loop of property (b) in §2.1).
// Configurations are canonical — the memory is kept as per-register
// sequences with no cross-register order, exactly the information content
// the append memory exposes.
//
// The checker explores the full computation graph (finite for protocols
// with bounded appends) with internal/explore and decides, exactly:
//
//   - Valency of every configuration (which decision values are reachable),
//     giving Lemma 2.2's bivalent initial configurations;
//   - Lemma 2.3's extension property: from a bivalent configuration, for
//     any node p, a bivalent configuration is reachable via a path
//     containing a p-step — and from it, Theorem 2.1's explicit infinite
//     non-deciding schedule (any finite prefix of it);
//   - violations of agreement (two nodes decided differently in some
//     reachable configuration), validity (a reachable decision contradicts
//     unanimous inputs) and 1-resilient termination (a fair cycle in the
//     v-free subgraph on which some correct node never decides, found via
//     SCC analysis).
//
// Theorem 2.1 becomes the executable statement: every protocol in a
// candidate family violates at least one of the three properties.
package bivalence

import (
	"fmt"
	"strings"

	"repro/internal/explore"
)

// MaxNodes bounds the node count of a configuration; the state space is
// exponential in it, and amcheck accepts n ≤ 6.
const MaxNodes = 6

// Msg is one appended message in the checker's memory model.
type Msg struct {
	Author, Seq, Value int
}

// Op is a node's next operation.
type Op struct {
	Append bool
	Value  int // appended value, 0 or 1, when Append
}

// State is a node's local state. Data is the protocol's own encoding of
// everything the node remembers; two states with equal fields are THE SAME
// state.
type State struct {
	Data     uint16
	Decided  bool
	Decision uint8
}

// Protocol is a deterministic consensus protocol in the append memory.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Init returns node id's state given its binary input.
	Init(id, input int) State
	// Next returns the node's next operation. Deterministic in (id, s).
	Next(id int, s State) Op
	// OnRead returns the node's state after reading view (the complete
	// memory, sorted by (author, seq)). Deterministic; view is scratch
	// space that the checker reuses after the call returns.
	OnRead(id int, s State, view []Msg) State
	// OnAppend returns the node's state after its append lands.
	OnAppend(id int, s State) State
}

// Register is one author's part of the memory: its Len appended binary
// values, the k-th (its seq-k message) in bit k of Bits.
type Register struct {
	Len, Bits uint16
}

// Config is a configuration: all node states plus the memory content, one
// register per author. It is canonical by construction — the memory keeps
// each author's messages in seq order and no order across authors, exactly
// the information the append memory exposes — and comparable, so equal
// values are the same configuration.
type Config struct {
	N      int // nodes; entries from N on stay zero: undecided, empty
	States [MaxNodes]State
	Regs   [MaxNodes]Register
}

// View appends c's memory to buf as messages sorted by (author, seq) and
// returns it.
func (c Config) View(buf []Msg) []Msg {
	for a, r := range c.Regs {
		for k := uint16(0); k < r.Len; k++ {
			buf = append(buf, Msg{Author: a, Seq: int(k), Value: int(r.Bits >> k & 1)})
		}
	}
	return buf
}

// Initial returns the initial configuration for the given inputs. It
// panics for more than MaxNodes inputs.
func Initial(p Protocol, inputs []int) Config {
	if len(inputs) > MaxNodes {
		panic(fmt.Sprintf("bivalence: %d nodes, above MaxNodes = %d", len(inputs), MaxNodes))
	}
	c := Config{N: len(inputs)}
	for i, in := range inputs {
		c.States[i] = p.Init(i, in)
	}
	return c
}

// Apply performs node's next operation on c and returns the successor,
// which equals c for a no-op read (property (b)). A read passes OnRead a
// view built in *scratch, which Apply grows as needed so one buffer serves
// every call.
func Apply(p Protocol, c Config, node int, scratch *[]Msg) Config {
	s := c.States[node]
	if s.Decided {
		return c // decided nodes halt (their steps are no-ops)
	}
	op := p.Next(node, s)
	if op.Append {
		r := &c.Regs[node]
		if op.Value&^1 != 0 || r.Len == 16 {
			panic(fmt.Sprintf("bivalence: %s appends %d as message %d of node %d; registers hold 16 binary values",
				p.Name(), op.Value, r.Len, node))
		}
		r.Bits |= uint16(op.Value) << r.Len
		r.Len++
		c.States[node] = p.OnAppend(node, s)
		return c
	}
	*scratch = c.View((*scratch)[:0])
	c.States[node] = p.OnRead(node, s, *scratch)
	return c
}

// Graph is the explored computation graph from one initial configuration,
// with the valency of every configuration.
type Graph struct {
	*explore.Graph[Config]
	n       int
	valency []uint8 // bit0: decision 0 reachable; bit1: decision 1
}

// Explore builds the computation graph from c0, bounded by maxConfigs.
// When the bound is hit, Truncated reports true and valencies are lower
// bounds (a "bivalent" verdict is still sound; "univalent" may not be).
func Explore(p Protocol, c0 Config, maxConfigs int) *Graph {
	var view []Msg
	step := func(c Config, node int) Config { return Apply(p, c, node, &view) }
	g := &Graph{Graph: explore.Explore(c0, c0.N, step, maxConfigs), n: c0.N}
	g.valency = g.Reach(func(i int) uint8 {
		var v uint8
		for _, s := range g.Config(i).States {
			if s.Decided {
				v |= 1 << s.Decision
			}
		}
		return v
	})
	return g
}

// Bivalent reports whether both decisions are reachable from i.
func (g *Graph) Bivalent(i int) bool { return g.valency[i] == 3 }

// AgreementViolation scans for a reachable configuration in which two
// nodes decided different values and returns its index, or -1.
func (g *Graph) AgreementViolation() int {
	for i := 0; i < g.Size(); i++ {
		saw := -1
		for _, s := range g.Config(i).States {
			if !s.Decided {
				continue
			}
			if saw >= 0 && saw != int(s.Decision) {
				return i
			}
			saw = int(s.Decision)
		}
	}
	return -1
}

// DecisionReached reports whether value v is decided in any reachable
// configuration.
func (g *Graph) DecisionReached(v int) bool {
	return g.valency[0]&(1<<uint(v)) != 0
}

// Undecided reports whether no node has decided in configuration i.
func (g *Graph) Undecided(i int) bool {
	for _, s := range g.Config(i).States {
		if s.Decided {
			return false
		}
	}
	return true
}

// ExtendBivalence implements Lemma 2.3 operationally: starting from
// bivalent configuration i, find a path on which node p takes at least one
// step, ending in a bivalent configuration. Returns the path (config
// indices, starting at i) and ok.
func (g *Graph) ExtendBivalence(i, p int) ([]int, bool) {
	return g.Path(i, p, g.Bivalent)
}

// NonDecidingSchedule constructs a prefix of Theorem 2.1's infinite
// computation: starting from a bivalent undecided configuration, it
// repeatedly extends round-robin over all nodes, each time reaching a
// configuration that is bivalent AND fully undecided. Because decision
// flags are monotone along steps, every configuration on the resulting
// schedule is undecided — this is the explicit computation in which every
// correct node performs infinitely many events and the algorithm never
// terminates. Returns the visited configuration indices and ok=false if
// the construction gets stuck (which, for a protocol satisfying agreement
// and validity, would falsify Lemma 2.3).
func (g *Graph) NonDecidingSchedule(start, cycles int) ([]int, bool) {
	if !g.Bivalent(start) || !g.Undecided(start) {
		return nil, false
	}
	goal := func(i int) bool { return g.Bivalent(i) && g.Undecided(i) }
	cur := start
	trace := []int{cur}
	for c := 0; c < cycles; c++ {
		for p := 0; p < g.n; p++ {
			path, ok := g.Path(cur, p, goal)
			if !ok {
				return trace, false
			}
			trace = append(trace, path[1:]...)
			cur = path[len(path)-1]
		}
	}
	return trace, true
}

// Dot renders the explored computation graph as Graphviz DOT, up to
// maxConfigs configurations (breadth-first from the root, which is index
// order: the explorer numbers configurations as its breadth-first search
// discovers them). Valency is colour-coded: bivalent orange, 0-valent
// blue, 1-valent green, dead (no decision reachable) grey; configurations
// with a decided node are double-ringed. Self-loop (no-op) edges are
// omitted for readability.
func (g *Graph) Dot(maxConfigs int) string {
	var b strings.Builder
	b.WriteString("digraph computation {\n  rankdir=TB;\n  node [shape=box, fontsize=8];\n")
	limit := max(1, min(maxConfigs, g.Size()))
	for i := 0; i < limit; i++ {
		color := "grey"
		switch g.valency[i] {
		case 1:
			color = "lightblue"
		case 2:
			color = "lightgreen"
		case 3:
			color = "orange"
		}
		shape := "box"
		if !g.Undecided(i) {
			shape = "doubleoctagon"
		}
		fmt.Fprintf(&b, "  c%d [label=\"#%d\", style=filled, fillcolor=%s, shape=%s];\n", i, i, color, shape)
		if !g.Expanded(i) {
			continue
		}
		for node := 0; node < g.n; node++ {
			j := g.Succ(i, node)
			if j == i || j >= limit {
				continue
			}
			fmt.Fprintf(&b, "  c%d -> c%d [label=\"%d\", fontsize=7];\n", i, j, node)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
