package experiments

import (
	"fmt"

	"repro/internal/backbone"
	"repro/internal/bivalence"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stickybit"
)

// RunE13 — the §1.2 separation: sticky bits (Plotkin / Malkhi et al.)
// implicitly order concurrent writes and therefore solve 1-resilient
// consensus with a trivial protocol — verified exhaustively over all
// schedules and crash variants — while the append memory, which refuses
// to break write ties, cannot (Theorem 2.1 / E1). The two objects differ
// in exactly the power the paper identifies.
func RunE13(o Options) []*Table {
	tbl := NewTable("E13: sticky bits vs append memory — the §1.2 separation, exhaustively",
		"shared object", "n", "agreement", "validity", "1-res termination", "configs", "solves consensus")
	maxN := 4
	if o.Quick {
		maxN = 3
	}
	for n := 2; n <= maxN; n++ {
		rep := stickybit.Verify(n)
		tbl.AddRow("sticky bit", n, rep.Agreement, rep.Validity, rep.Termination, rep.Configurations, rep.OK())
		tbl.Expect(len(tbl.Rows)-1, 6, OpEq, 1, 0,
			"Section 1.2: sticky bits order concurrent writes and solve 1-resilient consensus")
	}
	checkN := 3
	if o.Quick {
		checkN = 2
	}
	for n := 2; n <= checkN; n++ {
		family := bivalence.Family(n)
		agr, val, term, solves, configs := 0, 0, 0, 0, 0
		for _, p := range family {
			v := bivalence.CheckTheorem(p, n, 300000)
			configs += v.Configs
			if v.Agreement {
				agr++
			}
			if v.Validity {
				val++
			}
			if v.Termination {
				term++
			}
			if v.OK() {
				solves++
			}
		}
		m := len(family)
		tbl.AddRow(fmt.Sprintf("append memory (%d-member family)", m), n,
			fmt.Sprintf("%d/%d members", agr, m), fmt.Sprintf("%d/%d members", val, m),
			fmt.Sprintf("%d/%d members", term, m), configs,
			fmt.Sprintf("%d/%d members", solves, m))
	}
	tbl.Note = "sticky bits order concurrent writes (first write wins); the append memory deliberately does not — Theorem 2.1 bites only the latter"
	return []*Table{tbl}
}

// RunE14 — backbone properties (Garay et al. / Ren, the analyses §5.2
// builds on) measured across structures and adversaries: chain quality is
// the operational meaning of validity under a −1-voting adversary
// (quality > 1/2 ⇔ decision +1); the chain's quality collapses with the
// rate while the DAG's floors at the honest token share; forked/wasted
// fractions show where the chain's losses come from.
func RunE14(o Options) []*Table {
	trials := o.trials(40)
	if o.Quick {
		trials = o.trials(15)
	}
	n, t, k := 10, 4, 41

	type point struct {
		label string
		spec  scenario.Spec
	}
	points := []point{
		{"chain, silent",
			scenario.Spec{Protocol: scenario.Chain, Lambda: 0.25, Attack: scenario.AttackSilent}},
		{"chain, tiebreak λ=0.25",
			scenario.Spec{Protocol: scenario.Chain, Lambda: 0.25, Attack: scenario.AttackTieBreak}},
		{"chain, tiebreak λ=1",
			scenario.Spec{Protocol: scenario.Chain, Lambda: 1, Attack: scenario.AttackTieBreak}},
		{"dag, private-chain λ=0.25",
			scenario.Spec{Protocol: scenario.Dag, Lambda: 0.25, Attack: scenario.AttackPrivateChain}},
		{"dag, private-chain λ=1",
			scenario.Spec{Protocol: scenario.Dag, Lambda: 1, Attack: scenario.AttackPrivateChain}},
	}

	tbl := NewTable("E14: backbone properties at t/n = 0.4 (n=10, k=41); honest token share = 0.6",
		"scenario", "chain growth (blocks/Δ)", "chain quality", "wasted fraction", "common-prefix viol.", "validity ok")
	for _, p := range points {
		p := p
		type res struct {
			rep   backbone.Report
			valid bool
		}
		type acc struct {
			growth, quality, wasted, viol float64
			valid                         int
		}
		spec := p.spec
		spec.N, spec.T, spec.K = n, t, k
		b := scenario.MustBind(spec)
		order := must(b.OrderFunc())
		sums := runner.TrialsReduce(trials, o.Seed, o.Workers, acc{}, func(seed uint64) res {
			r := b.Randomized(seed)
			return res{backbone.Analyze(r, k, order), r.Verdict.Validity}
		}, func(a acc, r res) acc {
			a.growth += r.rep.Growth
			a.quality += r.rep.Quality
			a.wasted += r.rep.Wasted
			a.viol += float64(r.rep.CommonPrefixViolation)
			if r.valid {
				a.valid++
			}
			return a
		})
		nt := float64(trials)
		tbl.AddRow(p.label,
			sums.growth/nt, sums.quality/nt, sums.wasted/nt, sums.viol/nt,
			runner.Rate(sums.valid, trials))
	}
	tbl.Expect(0, 2, OpEq, 1, 0,
		"Section 5.2: with a silent adversary every chain block is honest — quality is exactly 1")
	tbl.Expect(2, 2, OpLe, 0.5, 0,
		"Theorem 5.4 via chain quality: at λ=1 the tie-breaking attack drives quality below 1/2")
	tbl.Expect(3, 2, OpGe, 0.5, 0,
		"Section 5.2: the DAG's quality floors at the honest token share 0.6 — nothing honest is wasted")
	tbl.Expect(4, 2, OpGe, 0.5, 0,
		"Section 5.2: the DAG's quality floor is rate-independent")
	tbl.Note = "quality > 1/2 is the operational form of validity; the DAG's quality floors at the honest token share because nothing honest is wasted"
	return []*Table{tbl}
}
