package bivalence

// Termination analysis: 1-resilient termination fails for faulty node v
// when there exists a fair infinite v-free computation in which some
// correct node never decides. On the finite computation graph this is a
// reachable strongly connected component of the v-free step graph in
// which (a) every node w ≠ v has at least one step (no-op self-steps
// count — reading an unchanged memory is an operation, the paper's
// property (b)), and (b) some node w ≠ v is undecided. Decision flags are
// monotone along edges, so all configurations of one SCC agree on who has
// decided.

// TerminationViolation searches for such an SCC with node v silent.
// It returns a configuration index inside a violating SCC, or -1; a
// truncated graph always yields -1 (sound answers only on fully explored
// graphs).
func (g *Graph) TerminationViolation(v int) int {
	return g.FairCycle(v, func(i int) bool {
		c := g.Config(i)
		for w := 0; w < g.n; w++ {
			if w != v && !c.States[w].Decided {
				return true
			}
		}
		return false
	})
}

// Verdict summarizes a full Theorem 2.1 check of one protocol on one node
// count: which consensus property fails (at least one must, by the
// impossibility result).
type Verdict struct {
	Protocol  string
	N         int
	Agreement bool // true = holds on all explored input assignments
	Validity  bool
	// Termination is 1-resilient termination: false when some faulty-node
	// choice admits a fair non-deciding computation.
	Termination bool
	// BivalentInitial reports whether some input assignment yields a
	// bivalent initial configuration (Lemma 2.2's premise for protocols
	// with both decisions reachable).
	BivalentInitial bool
	// Configs is the total number of configurations explored.
	Configs int
}

// OK reports whether the protocol would solve 1-resilient consensus —
// Theorem 2.1 says this must never be true.
func (v Verdict) OK() bool { return v.Agreement && v.Validity && v.Termination }

// CheckTheorem runs the full analysis of one protocol for n nodes over all
// 2^n input assignments, exploring at most maxConfigs configurations per
// assignment.
func CheckTheorem(p Protocol, n, maxConfigs int) Verdict {
	v := Verdict{Protocol: p.Name(), N: n, Agreement: true, Validity: true, Termination: true}
	for bits := 0; bits < 1<<uint(n); bits++ {
		inputs := make([]int, n)
		allSame := true
		for i := range inputs {
			inputs[i] = (bits >> uint(i)) & 1
			if inputs[i] != inputs[0] {
				allSame = false
			}
		}
		g := Explore(p, Initial(p, inputs), maxConfigs)
		v.Configs += g.Size()
		if g.AgreementViolation() >= 0 {
			v.Agreement = false
		}
		if allSame && g.DecisionReached(1-inputs[0]) {
			v.Validity = false
		}
		if g.Bivalent(g.Root()) {
			v.BivalentInitial = true
		}
		for faulty := 0; faulty < n; faulty++ {
			if g.TerminationViolation(faulty) >= 0 {
				v.Termination = false
				break
			}
		}
	}
	return v
}
