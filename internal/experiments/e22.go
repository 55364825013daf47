package experiments

import (
	"repro/internal/runner"
	"repro/internal/scenario"
)

// e22Point runs one (protocol, attack, topology) cell: validity rate plus
// the mean append-propagation lag over the graph.
func e22Point(o Options, trials int, spec scenario.Spec) (runner.Ratio, float64) {
	b := scenario.MustBind(spec)
	type sample struct {
		valid bool
		lag   float64
	}
	type acc struct {
		valid int
		lag   float64
	}
	a := runner.TrialsReduce(trials, o.Seed, o.Workers, acc{},
		func(seed uint64) sample {
			r := b.Randomized(seed)
			return sample{valid: r.Verdict.Validity, lag: r.VisMeanLag}
		},
		func(a acc, s sample) acc {
			if s.valid {
				a.valid++
			}
			a.lag += s.lag
			return a
		})
	return runner.Rate(a.valid, trials), a.lag / float64(trials)
}

// RunE22 — does the chain-vs-DAG separation survive real network graphs?
// The paper proves Theorem 5.4 (chain collapse) and Theorem 5.6 (DAG
// resilience) under the uniform Δ-bounded oracle: every append is visible
// everywhere within one Δ. This experiment swaps the oracle for generated
// topologies whose appends flood hop by hop with per-link delays
// (access.Visibility) and re-runs both protocols under their signature
// attacks.
//
// Two findings. First, with links fast enough that flooding stays inside
// the Δ the theorems assume, the separation survives every graph: the
// attacked chain's validity is zero on the complete mesh and stays zero
// on sparse graphs, while the DAG keeps deciding correctly. Second, the
// synchrony bound is load-bearing: as per-link delay grows and multi-hop
// propagation stretches effective staleness past Δ, even the DAG's
// resilience erodes — the Theorem 5.1 lesson (asynchrony defeats
// randomized access) reappearing as a topology effect, with the measured
// propagation lag as the dose.
func RunE22(o Options) []*Table {
	trials := o.trials(40)
	if o.Quick {
		trials = o.trials(15)
	}
	n, t, k := 10, 4, 41
	base := scenario.Spec{N: n, T: t, Lambda: 1, K: k, DelayDist: "uniform"}

	type topo struct {
		name   scenario.Topology
		params map[string]float64
	}
	topos := []topo{
		{scenario.TopoComplete, nil},
		{scenario.TopoSmallWorld, map[string]float64{"k": 2, "beta": 0.2}},
		{scenario.TopoRing, map[string]float64{"k": 1}},
	}
	sep := NewTable("E22a: chain vs DAG across topologies, links within Δ (n=10, t=4, λ=1, k=41, link delay 0.1Δ)",
		"topology", "chain validity", "dag validity", "mean lag (Δ)")
	for _, tp := range topos {
		spec := base
		spec.Topology, spec.TopologyParams, spec.LinkDelay = tp.name, tp.params, 0.1
		chainSpec, dagSpec := spec, spec
		chainSpec.Protocol, chainSpec.Attack = scenario.Chain, scenario.AttackTieBreak
		dagSpec.Protocol, dagSpec.Attack = scenario.Dag, scenario.AttackPrivateChain
		chainValid, _ := e22Point(o, trials, chainSpec)
		dagValid, dagLag := e22Point(o, trials, dagSpec)
		sep.AddRow(string(tp.name), chainValid, dagValid, Float(dagLag, "%.3f"))
		row := len(sep.Rows) - 1
		sep.Expect(row, 1, OpLe, 0.05, 0,
			"Theorem 5.4: the tie-break attack collapses the chain on every graph")
		sep.Expect(row, 2, OpGe, 0.25, 0,
			"Theorem 5.6: the DAG keeps deciding correctly on every graph while the chain cannot")
		sep.ExpectCell(row, 2, OpGe, row, 1, 0.05,
			"Theorems 5.4/5.6: the DAG's validity dominates the attacked chain's on every topology")
	}
	sep.Expect(0, 3, OpEq, 0, 0, "complete topology takes the oracle path: zero propagation lag")
	sep.ExpectCell(1, 3, OpGe, 0, 3, 0.02, "sparse graphs pay real propagation lag")
	sep.Note = "the separation is a property of the structures, not of the oracle: gossip over sparse graphs preserves it while flooding stays within Δ"

	delays := []float64{0.05, 0.1, 0.25, 0.5}
	if o.Quick {
		delays = []float64{0.05, 0.5}
	}
	stretch := NewTable("E22b: DAG validity vs link delay on the k=1 ring (n=10, t=4, λ=1, k=41)",
		"link delay (Δ)", "dag validity", "mean lag (Δ)")
	for _, d := range delays {
		spec := base
		spec.Protocol, spec.Attack = scenario.Dag, scenario.AttackPrivateChain
		spec.Topology, spec.TopologyParams = scenario.TopoRing, map[string]float64{"k": 1}
		spec.LinkDelay = d
		valid, lag := e22Point(o, trials, spec)
		stretch.AddRow(Float(d, "%.2f"), valid, Float(lag, "%.3f"))
	}
	last := len(stretch.Rows) - 1
	stretch.ExpectCell(0, 1, OpGe, last, 1, 0.05,
		"Theorem 5.1's shadow: stretching propagation past Δ erodes even the DAG's resilience")
	stretch.ExpectCell(last, 2, OpGe, 0, 2, 0.05,
		"the dose is measurable: mean propagation lag grows with per-link delay")
	stretch.Expect(last, 1, OpLe, 0.2, 0,
		"at half a Δ per hop the five-hop ring is effectively asynchronous and the DAG yields")
	stretch.Note = "the Δ-bound the theorems assume is a property of the network, not of the protocol: sparse graphs spend it on hops"
	return []*Table{sep, stretch}
}
