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
	for _, lambda := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		chainSum, err := scenario.RunTrials(scenario.Spec{
			Protocol: scenario.Chain, N: n, T: t, Lambda: lambda, K: k,
			TieBreak: scenario.TieRandom, Attack: scenario.AttackTieBreak, Seed: 1,
		}, trials)
		if err != nil {
			log.Fatal(err)
		}
		dagSum, err := scenario.RunTrials(scenario.Spec{
			Protocol: scenario.Dag, N: n, T: t, Lambda: lambda, K: k,
			Pivot: scenario.PivotGhost, Attack: scenario.AttackPrivateChain, Seed: 1,
		}, trials)
		if err != nil {
			log.Fatal(err)
		}
		bound := 1 / (1 + lambda*float64(n-t))
		fmt.Printf("%-6g %-8.2g %-22.3f %3d/%-12d %3d/%-12d\n",
			lambda, lambda*float64(n-t), bound, chainSum.Validity, trials, dagSum.Validity, trials)
	}
	fmt.Println("\nThe chain column collapses once the bound drops below t/n = 0.4;")
	fmt.Println("the DAG column stays flat — why BlockDAGs excel blockchains.")
}
