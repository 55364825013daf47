package experiments

import (
	"fmt"
	"math"

	"repro/internal/abdsim"
	"repro/internal/access"
	"repro/internal/msgnet"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// burstSims recycles maxByzGapBurst's simulators across trials.
var burstSims = runner.NewPool(sim.New)

// maxByzGapBurst simulates the raw Poisson token stream for n nodes (t of
// them Byzantine) until `grants` grants have been issued and returns the
// largest number of Byzantine grants that fall inside one correct-silent
// interval — the length of the private chain Lemma 5.5's adversary can
// insert.
func maxByzGapBurst(seed uint64, n, t int, lambda float64, grants int) int {
	s := burstSims.Get()
	rng := xrand.New(seed, 0xE7)
	maxBurst, burst := 0, 0
	var authority access.Authority
	authority.Reset(s, rng, n, lambda, 1.0, nil, func(g access.Grant) {
		if int(g.Node) >= n-t {
			burst++
			if burst > maxBurst {
				maxBurst = burst
			}
		} else {
			burst = 0
		}
		if g.Seq+1 >= grants {
			authority.Stop()
			s.Stop()
		}
	})
	authority.Start()
	s.Run()
	s.Reset()
	burstSims.Put(s)
	return maxBurst
}

// RunE7 — Lemma 5.5: the number of extra Byzantine values insertable just
// before the decision grows like Θ(λ log n). Table (a) measures the purest
// form of the quantity — the maximum Byzantine burst within one
// correct-silent interval of the token stream — across n, and fits
// a + b·log n. Table (b) confirms the mechanism end-to-end: the longest
// consecutive Byzantine run inside the first k ordered values of actual
// DAG executions under the DagChainExtender.
func RunE7(o Options) []*Table {
	trials := o.trials(100)
	ns := []int{8, 16, 32, 64, 128, 256}
	if o.Quick {
		trials = o.trials(30)
		ns = []int{8, 32, 128}
	}
	const lambda = 1.0

	burstTbl := NewTable("E7a: max Byzantine burst in one correct-silent interval (t = n/4, λ=1, 40n grants)",
		"n", "log n", "mean max burst", "±95%")
	var xs, ys []float64
	for _, n := range ns {
		n := n
		bursts := runner.Trials(trials, o.Seed, o.Workers, func(seed uint64) float64 {
			return float64(maxByzGapBurst(seed, n, n/4, lambda, 40*n))
		})
		sum := stats.Summarize(bursts)
		burstTbl.AddRow(n, math.Log(float64(n)), sum.Mean, sum.CI95())
		xs = append(xs, float64(n))
		ys = append(ys, sum.Mean)
	}
	a, b, r2 := stats.LogFit(xs, ys)
	burstTbl.Note = fmt.Sprintf("log fit: burst ≈ %.3g + %.3g·log n, r² = %.3f — the Θ(λ log n) of Lemma 5.5", a, b, r2)
	burstTbl.ExpectCell(len(burstTbl.Rows)-1, 2, OpGt, 0, 2, 0,
		"Lemma 5.5: the max Byzantine burst grows with n — Θ(λ log n), not O(1)")

	runTbl := NewTable("E7b: longest Byzantine run in the first k ordered DAG values (DagChainExtender, t/n=0.25, λ=1, k=81)",
		"n", "mean max run", "±95%", "byz fraction in first k")
	runNs := []int{8, 16, 32}
	if o.Quick {
		runNs = []int{8, 16}
	}
	for _, n := range runNs {
		type res struct {
			maxRun int
			frac   float64
		}
		b := scenario.MustBind(scenario.Spec{
			Protocol: scenario.Dag, N: n, T: n / 4, Lambda: lambda, K: 81,
			Attack: scenario.AttackPrivateChain,
		})
		prefix := must(b.ByzantinePrefix())
		rs := runner.Trials(trials/2+1, o.Seed, o.Workers, func(seed uint64) res {
			r := b.Randomized(seed)
			m, byz, maxRun := prefix(r.Roster, r.Mem)
			frac := 0.0
			if m > 0 {
				frac = float64(byz) / float64(m)
			}
			return res{maxRun, frac}
		})
		var runs, fracs []float64
		for _, r := range rs {
			runs = append(runs, float64(r.maxRun))
			fracs = append(fracs, r.frac)
		}
		rs1, rs2 := stats.Summarize(runs), stats.Summarize(fracs)
		runTbl.AddRow(n, rs1.Mean, rs1.CI95(), rs2.Mean)
		runTbl.Expect(len(runTbl.Rows)-1, 3, OpGt, 0.25, 0,
			"Lemma 5.5: the Byzantine share of the ordered prefix exceeds the token share t/n = 0.25")
	}
	runTbl.Note = "the Byzantine share of the ordering exceeds the token share t/n — the inserted private chains"
	return []*Table{burstTbl, runTbl}
}

// RunE8 — Theorem 5.6: DAG resilience is independent of the access rate λ
// and close to the optimal 1/2. Table (a) sweeps (t/n, λ); validity stays
// flat in λ and degrades only as t/n approaches 1/2. Table (b) compares
// the GHOST and longest-chain pivot rules at the hostile corner.
func RunE8(o Options) []*Table {
	trials := o.trials(60)
	k := 81
	lambdas := []float64{0.05, 0.2, 1.0}
	ts := []int{2, 3, 4}
	if o.Quick {
		trials = o.trials(20)
		lambdas = []float64{0.05, 1.0}
		ts = []int{2, 4}
	}
	n := 10
	cols := []string{"t", "t/n"}
	for _, lambda := range lambdas {
		cols = append(cols, fmt.Sprintf("λ=%.2g", lambda))
	}
	grid := NewTable("E8a: DAG (GHOST pivot) validity vs DagChainExtender, n=10, k=81", cols...)
	cell := func(t int, lambda float64) runner.Ratio {
		b := scenario.MustBind(scenario.Spec{
			Protocol: scenario.Dag, N: n, T: t, Lambda: lambda, K: k,
			Attack: scenario.AttackPrivateChain,
		})
		return runner.RateTrials(trials, o.Seed, o.Workers, func(seed uint64) bool {
			return b.Randomized(seed).Verdict.Validity
		})
	}
	for _, t := range ts {
		row := []any{t, Float(float64(t)/float64(n), "%.2f")}
		for _, lambda := range lambdas {
			row = append(row, cell(t, lambda))
		}
		grid.AddRow(row...)
		ri := len(grid.Rows) - 1
		grid.ExpectCell(ri, len(cols)-1, OpEq, ri, 2, 0.15,
			"Theorem 5.6: DAG validity is independent of the rate — the highest-λ column matches the lowest")
		for ci := 2; ci < len(cols); ci++ {
			grid.Expect(ri, ci, OpGe, 0.75, 0,
				"Theorem 5.6: DAG resilience stays near the optimal 1/2 for every t/n <= 0.4")
		}
	}
	grid.Note = "columns barely move with λ (contrast E6a, where the chain collapses by λ=0.25)"

	pivots := NewTable("E8b: pivot rule comparison at the hostile corner (n=10, t=4, λ=1, k=81)",
		"pivot", "validity ok")
	for _, p := range []scenario.Pivot{scenario.PivotGhost, scenario.PivotLongest} {
		b := scenario.MustBind(scenario.Spec{
			Protocol: scenario.Dag, N: n, T: 4, Lambda: 1, K: k,
			Pivot: p, Attack: scenario.AttackPrivateChain,
		})
		oks := runner.RateTrials(trials, o.Seed, o.Workers, func(seed uint64) bool {
			return b.Randomized(seed).Verdict.Validity
		})
		pivots.AddRow(string(p), oks)
		pivots.Expect(len(pivots.Rows)-1, 1, OpGe, 0.75, 0,
			"Theorem 5.6: both pivot rules hold validity under the pivot-extending attack at the hostile corner")
	}
	return []*Table{grid, pivots}
}

// RunE9 — Section 4: the ABD-style simulation's message complexity. One
// append costs n broadcast messages plus n ack-broadcasts (n² messages);
// one read costs n requests plus n view responses whose size grows with
// the memory — the "exponential information exchange" warning when every
// node participates in every round.
func RunE9(o Options) []*Table {
	ns := []int{4, 8, 16, 32}
	if o.Quick {
		ns = []int{4, 16}
	}
	tbl := NewTable("E9: message cost of the append-memory simulation (Algorithms 2+3)",
		"n", "append msgs", "theory n+n²", "read msgs", "theory 2n", "read bytes", "view bytes growth")
	for _, n := range ns {
		s := sim.New()
		nw := msgnet.New(s, xrand.New(o.Seed, uint64(n)), n, 1.0)
		c := abdsim.NewCluster(nw, nil)
		c.Nodes[0].Append(+1, 0, nil)
		s.Run()
		st0 := nw.Stats()
		appendMsgs := st0.ByKind["append"] + st0.ByKind["ack"]

		c.Nodes[1].Read(nil)
		s.Run()
		st1 := nw.Stats()
		readMsgs := st1.ByKind["read"] + st1.ByKind["view"] - (st0.ByKind["read"] + st0.ByKind["view"])
		readBytes := st1.Bytes - st0.Bytes

		// Grow the memory and read again: view responses carry the whole
		// memory, so bytes per read grow linearly with history.
		for i := 0; i < 8; i++ {
			c.Nodes[i%n].Append(int64(i), 0, nil)
		}
		s.Run()
		st2 := nw.Stats()
		c.Nodes[2].Read(nil)
		s.Run()
		st3 := nw.Stats()
		grownReadBytes := st3.Bytes - st2.Bytes

		tbl.AddRow(n, appendMsgs, n+n*n, readMsgs, 2*n, readBytes,
			fmt.Sprintf("%d -> %d", readBytes, grownReadBytes))
		row := len(tbl.Rows) - 1
		tbl.ExpectCell(row, 1, OpEq, row, 2, 0,
			"Section 4: one append costs exactly n broadcast + n² ack messages")
		tbl.ExpectCell(row, 3, OpEq, row, 4, 0,
			"Section 4: one read costs exactly n requests + n view responses")
	}
	tbl.Note = "every local view is retransmitted in full on each read — protocols with full participation pay ever-growing traffic"
	return []*Table{tbl}
}

// RunE10 — the headline figure of Section 5: at a fixed Byzantine share
// t/n = 0.4, sweep the access rate and compare validity across the three
// structures. The chain dies as λ(n−t) grows; the DAG and the timestamp
// baseline do not care.
func RunE10(o Options) []*Table {
	trials := o.trials(60)
	lambdas := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	if o.Quick {
		trials = o.trials(20)
		lambdas = []float64{0.05, 0.25, 1.0}
	}
	n, t, k := 10, 4, 41
	tbl := NewTable("E10: validity at t/n = 0.4 (n=10, k=41) under each structure's worst adversary",
		"λ", "λ(n-t)", "chain bound 1/(1+λ(n-t))", "chain (rand ties)", "DAG (GHOST)", "timestamps")
	for _, lambda := range lambdas {
		validity := func(spec scenario.Spec) runner.Ratio {
			spec.N, spec.T, spec.Lambda, spec.K = n, t, lambda, k
			b := scenario.MustBind(spec)
			return runner.RateTrials(trials, o.Seed, o.Workers, func(seed uint64) bool {
				return b.Randomized(seed).Verdict.Validity
			})
		}
		chainOK := validity(scenario.Spec{Protocol: scenario.Chain, Attack: scenario.AttackTieBreak})
		dagOK := validity(scenario.Spec{Protocol: scenario.Dag, Attack: scenario.AttackPrivateChain})
		tsOK := validity(scenario.Spec{Protocol: scenario.Timestamp, Attack: scenario.AttackFlip})
		rateNT := lambda * float64(n-t)
		tbl.AddRow(lambda, rateNT, 1/(1+rateNT), chainOK, dagOK, tsOK)
		row := len(tbl.Rows) - 1
		tbl.ExpectCell(row, 4, OpGe, row, 3, 0,
			"Section 5 headline: at every rate the DAG is at least as resilient as the chain")
		tbl.Expect(row, 4, OpGe, 0.7, 0,
			"Theorem 5.6: DAG validity stays high at t/n = 0.4 regardless of the rate")
		tbl.Expect(row, 5, OpGe, 0.75, 0,
			"Theorem 5.2: the timestamp baseline ignores the rate entirely")
	}
	tbl.Expect(len(tbl.Rows)-1, 3, OpLe, 0.2, 0,
		"Theorem 5.4: at the highest rate the chain's bound 1/(1+λ(n-t)) is far below t/n and validity collapses")
	tbl.Note = "why BlockDAGs excel blockchains: the DAG column tracks the timestamp baseline; the chain column tracks its rate-dependent bound"
	return []*Table{tbl}
}
