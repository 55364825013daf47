// Command amdot runs one protocol execution and dumps the resulting
// append-memory structure (chain tree or BlockDAG) as Graphviz DOT on
// stdout — Byzantine blocks in red, the decision prefix bold. With
// -topology it instead emits the generated network graph itself, so
// scenario topologies can be inspected before running anything. DOT
// output is refused above -dot-max-nodes (Graphviz layouts of 10k+-node
// graphs are unreadable and take minutes); use -stats there instead,
// which prints the graph's shape — size, degree distribution, hop
// diameter — without rendering it.
//
// The run is described by the scenario flags of scenario.NewFlags — the
// same set amrun takes, minus -trials — over amdot's own default Spec, so
// any run amrun can make (-tiebreak adversarial -attack fork: Theorem
// 5.3's sibling forks) can be drawn.
//
// Examples:
//
//	amdot -protocol chain -n 8 -t 3 -lambda 0.5 -k 15 -attack fork | dot -Tsvg > run.svg
//	amdot -protocol dag -n 8 -t 2 -lambda 1 -k 15 -attack private-chain
//	amdot -topology smallworld -n 16 -topology-params k=2,beta=0.3 | dot -Tsvg > net.svg
//	amdot -topology scalefree -n 10000 -topology-params m=3 -stats
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strings"

	"repro/internal/dotviz"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// defaults is the spec a bare amdot invocation draws.
var defaults = scenario.Spec{
	Protocol: scenario.Dag, N: 8, T: 2, Lambda: 0.5, K: 15,
	Attack: scenario.AttackSilent, Seed: 1,
}

func main() {
	// One run is drawn, so there is no trial count to set.
	specFlags := scenario.NewFlags(flag.CommandLine, defaults, "trials")
	var (
		stats  = flag.Bool("stats", false, "with -topology: print graph statistics instead of DOT")
		dotMax = flag.Int("dot-max-nodes", 1024, "refuse DOT output for topologies above this many nodes")
	)
	flag.Parse()
	spec, err := specFlags.Apply(defaults)
	if err != nil {
		fatal(err)
	}

	if spec.Topology != "" {
		g, err := scenario.BuildTopology(spec)
		if err != nil {
			fatal(err)
		}
		name := string(spec.Topology)
		if *stats {
			emit(topologyStats(g, name))
			return
		}
		if g.N() > *dotMax {
			fatal(fmt.Errorf("topology has %d nodes, above the %d-node DOT limit — a Graphviz layout at this scale is unusable; use -stats for a structural summary (or raise -dot-max-nodes)", g.N(), *dotMax))
		}
		emit(dotviz.Topology(g, name))
		return
	}

	if *stats {
		fatal(fmt.Errorf("-stats requires -topology"))
	}

	if spec.Protocol != scenario.Chain && spec.Protocol != scenario.Dag {
		fatal(fmt.Errorf("-protocol must be chain or dag"))
	}

	b, err := scenario.Bind(spec)
	if err != nil {
		fatal(err)
	}
	r, err := b.Run(spec.Seed)
	if err != nil {
		fatal(err)
	}
	opts := dotviz.Options{IsByzantine: r.Roster.IsByzantine, K: spec.K}
	if spec.Protocol == scenario.Chain {
		emit(dotviz.Chain(r.FinalView, opts))
	} else {
		emit(dotviz.Dag(r.FinalView, opts))
	}
}

// topologyStats summarizes a generated graph without rendering it:
// size, degree spread, a power-of-two degree histogram (the shape that
// separates rings from scale-free hubs at a glance), and the hop
// diameter. This is the inspection path for graphs too large for DOT.
func topologyStats(g *topology.Graph, name string) string {
	var b strings.Builder
	n := g.N()
	minDeg, maxDeg, total := n, 0, 0
	// Histogram bucket i counts nodes with degree in [2^i, 2^(i+1)).
	var hist [32]int
	for i := 0; i < n; i++ {
		d := g.Degree(i)
		total += d
		if d < minDeg {
			minDeg = d
		}
		if d > maxDeg {
			maxDeg = d
		}
		hist[bits.Len(uint(d))]++
	}
	fmt.Fprintf(&b, "topology:     %s\n", name)
	fmt.Fprintf(&b, "nodes:        %d\n", n)
	fmt.Fprintf(&b, "links:        %d\n", g.NumEdges())
	fmt.Fprintf(&b, "degree:       min %d / mean %.2f / max %d\n", minDeg, float64(total)/float64(n), maxDeg)
	fmt.Fprintf(&b, "degree histogram:\n")
	for i, c := range hist {
		if c == 0 {
			continue
		}
		lo := 0
		if i > 0 {
			lo = 1 << (i - 1)
		}
		hi := 1<<i - 1
		if lo == hi {
			fmt.Fprintf(&b, "  %7d       %6d nodes\n", lo, c)
		} else {
			fmt.Fprintf(&b, "  %4d-%-4d     %6d nodes\n", lo, hi, c)
		}
	}
	fmt.Fprintf(&b, "hop diameter: %d\n", g.HopDiameter())
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amdot:", err)
	os.Exit(1)
}

// emit writes s to stdout; a failed write fails the run.
func emit(s string) {
	if _, err := os.Stdout.WriteString(s); err != nil {
		fatal(err)
	}
}
