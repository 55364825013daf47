// Chain vs DAG: the paper's headline comparison, runnable in seconds.
//
// At a fixed Byzantine share t/n = 0.4, the access rate λ is swept.
// Theorem 5.4 predicts the Chain's resilience bound 1/(1+λ(n−t)) dives
// below 0.4 as the rate grows — the tie-breaker adversary then flips the
// decision. Theorem 5.6 predicts the DAG does not care about λ at all.
//
//	go run ./examples/chain_vs_dag
package main

import (
	"fmt"
	"log"

	"repro/internal/scenario"
)

func main() {
	const (
		n, t   = 10, 4
		k      = 41
		trials = 40
	)
	fmt.Printf("Chain vs DAG at t/n = %.1f (n=%d, k=%d, %d trials per point)\n\n", float64(t)/n, n, k, trials)
	fmt.Printf("%-6s %-8s %-22s %-16s %-16s\n", "λ", "λ(n-t)", "chain bound 1/(1+λ(n-t))", "chain validity", "dag validity")
	lambdas := []float64{0.05, 0.1, 0.25, 0.5, 1.0}
	sweep := scenario.Axis{Name: "lambda"}
	for _, lambda := range lambdas {
		sweep.Values = append(sweep.Values, scenario.Value{Num: lambda})
	}
	chainValid := validity(scenario.Spec{
		Protocol: scenario.Chain, N: n, T: t, K: k,
		TieBreak: scenario.TieRandom, Attack: scenario.AttackTieBreak, Seed: 1, Trials: trials,
		Sweep: []scenario.Axis{sweep},
	})
	dagValid := validity(scenario.Spec{
		Protocol: scenario.Dag, N: n, T: t, K: k,
		Pivot: scenario.PivotGhost, Attack: scenario.AttackPrivateChain, Seed: 1, Trials: trials,
		Sweep: []scenario.Axis{sweep},
	})
	for i, lambda := range lambdas {
		bound := 1 / (1 + lambda*float64(n-t))
		fmt.Printf("%-6g %-8.2g %-22.3f %3d/%-12d %3d/%-12d\n",
			lambda, lambda*float64(n-t), bound, chainValid[i], trials, dagValid[i], trials)
	}
	fmt.Println("\nThe chain column collapses once the bound drops below t/n = 0.4;")
	fmt.Println("the DAG column stays flat — why BlockDAGs excel blockchains.")
}

// validity runs the sweep and returns each point's count of trials that
// met validity, read from the default metrics.
func validity(spec scenario.Spec) []int {
	res, err := scenario.RunSpec(spec, scenario.Options{})
	if err != nil {
		log.Fatal(err)
	}
	counts := make([]int, len(res.Points))
	for i, pt := range res.Points {
		for _, mv := range pt.Metrics {
			if mv.Name == "validity" {
				counts[i] = mv.Count
			}
		}
	}
	return counts
}
