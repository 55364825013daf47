package experiments

import (
	"math"

	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// tsTail returns Theorem 5.2's analytic validity-failure estimate: the
// normal approximation P[sum of k ±1 votes < 0] with vote distribution
// P[+1] = (n−t)/n.
func tsTail(k, n, t int) float64 {
	p := float64(n-t) / float64(n)
	mu := float64(k) * (2*p - 1)
	sigma := math.Sqrt(float64(k) * (1 - (2*p-1)*(2*p-1)))
	if sigma == 0 {
		return 0
	}
	return stats.NormalTail(mu/sigma, 0, 1)
}

// RunE4 — Theorem 5.2: the timestamp baseline satisfies validity with a
// failure probability decaying exponentially in k·((n−2t)/n)². Two
// regimes: a tight margin n−2t = 2 (k must be large) and a wide margin
// n−2t = Ω(n) (small k suffices). Agreement and termination never fail.
func RunE4(o Options) []*Table {
	trials := o.trials(200)
	ks := []int{5, 11, 21, 41, 81}
	if o.Quick {
		trials = o.trials(40)
		ks = []int{5, 21, 81}
	}
	var tables []*Table
	for _, regime := range []struct {
		name string
		n, t int
	}{
		{"tight margin (n=10, t=4, n-2t=2)", 10, 4},
		{"wide margin (n=10, t=2, n-2t=6)", 10, 2},
	} {
		tbl := NewTable("E4: timestamp baseline, "+regime.name,
			"k", "validity failures", "analytic tail", "agreement failures", "termination failures")
		for _, k := range ks {
			type res struct{ val, agr, term bool }
			type fails struct{ val, agr, term int }
			b := scenario.MustBind(scenario.Spec{
				Protocol: scenario.Timestamp, N: regime.n, T: regime.t,
				Lambda: 0.5, K: k, Attack: scenario.AttackFlip,
			})
			fs := runner.TrialsReduce(trials, o.Seed, o.Workers, fails{}, func(seed uint64) res {
				r := b.Randomized(seed)
				return res{!r.Verdict.Validity, !r.Verdict.Agreement, !r.Verdict.Termination}
			}, func(a fails, r res) fails {
				if r.val {
					a.val++
				}
				if r.agr {
					a.agr++
				}
				if r.term {
					a.term++
				}
				return a
			})
			tbl.AddRow(k, runner.Rate(fs.val, trials), tsTail(k, regime.n, regime.t), fs.agr, fs.term)
			row := len(tbl.Rows) - 1
			tbl.Expect(row, 3, OpEq, 0, 0,
				"Theorem 5.2: agreement is deterministic — the authority's order is total")
			tbl.Expect(row, 4, OpEq, 0, 0,
				"Theorem 5.2: termination is deterministic — k values always arrive")
		}
		tbl.ExpectCell(len(tbl.Rows)-1, 1, OpLe, 0, 1, 0,
			"Theorem 5.2: validity failures decay with k — the largest k is no worse than the smallest")
		tbl.Note = "agreement/termination are deterministic (the authority's order is total); only validity is weak"
		tables = append(tables, tbl)
	}
	return tables
}

// RunE5 — Theorem 5.3: with worst-case deterministic tie-breaking, the
// fork adversary drives the Byzantine fraction of the longest chain to
// t/(n−t); once that crosses 1/2 — i.e. t ≥ n/3 — validity collapses.
func RunE5(o Options) []*Table {
	trials := o.trials(60)
	if o.Quick {
		trials = o.trials(20)
	}
	n, lambda, k := 9, 0.5, 41
	tbl := NewTable("E5: chain + deterministic (adversarial) tie-breaking vs ChainForker, n=9, λ=0.5, k=41",
		"t", "t/n", "validity ok", "byz chain fraction", "theory t/(n-t)")
	for _, t := range []int{1, 2, 3, 4, 5} {
		t := t
		type res struct {
			ok   bool
			frac float64
		}
		type acc struct {
			oks     int
			fracSum float64
		}
		b := scenario.MustBind(scenario.Spec{
			Protocol: scenario.Chain, N: n, T: t, Lambda: lambda, K: k,
			TieBreak: scenario.TieAdversarial, Attack: scenario.AttackFork,
		})
		prefix := must(b.ByzantinePrefix())
		sums := runner.TrialsReduce(trials, o.Seed, o.Workers, acc{}, func(seed uint64) res {
			r := b.Randomized(seed)
			frac := 0.0
			if n, byz, _ := prefix(r.Roster, r.Mem); n > 0 {
				frac = float64(byz) / float64(n)
			}
			return res{r.Verdict.Validity, frac}
		}, func(a acc, r res) acc {
			if r.ok {
				a.oks++
			}
			a.fracSum += r.frac
			return a
		})
		tbl.AddRow(t, Float(float64(t)/float64(n), "%.2f"),
			runner.Rate(sums.oks, trials), sums.fracSum/float64(trials), float64(t)/float64(n-t))
		row := len(tbl.Rows) - 1
		if t < 3 {
			tbl.Expect(row, 2, OpGe, 0.9, 0,
				"Theorem 5.3: below t = n/3 the Byzantine chain fraction stays under 1/2 and validity holds")
		} else if t > 3 {
			tbl.Expect(row, 2, OpLe, 0.5, 0,
				"Theorem 5.3: above t = n/3 worst-case tie-breaking collapses validity")
		}
	}
	tbl.Note = "collapse sets in above t = n/3 = 3, where the Byzantine chain fraction crosses 1/2"
	return []*Table{tbl}
}

// RunE6 — Theorem 5.4: with randomized tie-breaking the chain's resilience
// is t/n ≤ 1/(1+λ(n−t)). Table (a) fixes t/n = 0.4 and sweeps the rate:
// validity flips from holding to failing as the bound drops below 0.4.
// Table (b) fixes the rate and sweeps t/n across the predicted threshold.
func RunE6(o Options) []*Table {
	trials := o.trials(60)
	if o.Quick {
		trials = o.trials(20)
	}
	n, t, k := 10, 4, 21
	bind := func(nn, tt int, lambda float64) *scenario.Bound {
		return scenario.MustBind(scenario.Spec{
			Protocol: scenario.Chain, N: nn, T: tt, Lambda: lambda, K: k,
			Attack: scenario.AttackTieBreak,
		})
	}

	sweep := NewTable("E6a: chain + randomized tie-breaking vs ChainTieBreaker, t/n = 0.4 fixed, rate swept",
		"λ", "λ(n-t)", "paper bound t/n ≤", "t/n", "validity ok")
	lambdas := []float64{0.025, 0.05, 0.1, 0.25, 0.5, 1.0}
	if o.Quick {
		lambdas = []float64{0.05, 0.25, 1.0}
	}
	for _, lambda := range lambdas {
		b := bind(n, t, lambda)
		oks := runner.RateTrials(trials, o.Seed, o.Workers, func(seed uint64) bool { return b.Randomized(seed).Verdict.Validity })
		rateNT := lambda * float64(n-t)
		tbl := 1 / (1 + rateNT)
		sweep.AddRow(lambda, rateNT, tbl, Float(float64(t)/float64(n), "%.2f"), oks)
	}
	sweep.Expect(0, 4, OpGe, 0.7, 0,
		"Theorem 5.4: at the lowest rate the bound 1/(1+λ(n-t)) exceeds t/n = 0.4 and validity holds")
	sweep.Expect(len(lambdas)-1, 4, OpLe, 0.15, 0,
		"Theorem 5.4: at λ=1 the bound drops far below t/n = 0.4 and validity collapses")
	sweep.Note = "validity holds while t/n is below the bound and collapses once the rate pushes the bound under t/n"

	thresh := NewTable("E6b: same attack, rate fixed at λ=0.25, Byzantine share swept (n=10, k=21)",
		"t", "t/n", "λ(n-t)", "paper bound t/n ≤", "validity ok")
	for _, tt := range []int{1, 2, 3, 4, 5} {
		b := bind(n, tt, 0.25)
		oks := runner.RateTrials(trials, o.Seed, o.Workers, func(seed uint64) bool { return b.Randomized(seed).Verdict.Validity })
		rateNT := 0.25 * float64(n-tt)
		thresh.AddRow(tt, Float(float64(tt)/float64(n), "%.2f"), rateNT, 1/(1+rateNT), oks)
	}
	thresh.Expect(0, 4, OpGe, 0.9, 0,
		"Theorem 5.4: t/n = 0.1 sits well below the λ=0.25 bound — validity must hold")
	thresh.Expect(len(thresh.Rows)-1, 4, OpLe, 0.2, 0,
		"Theorem 5.4: t/n = 0.5 sits above the λ=0.25 bound — validity must collapse")
	return []*Table{sweep, thresh}
}
