// Adversary lab: every attack of Section 5 against both structures, with
// the structural damage made visible — forks, orphaned blocks, Byzantine
// share of the decision prefix and the resulting verdicts.
//
//	go run ./examples/adversary_lab
package main

import (
	"fmt"
	"log"

	"repro/internal/chain"
	"repro/internal/scenario"
)

func main() {
	const (
		n, t   = 10, 4
		lambda = 1.0
		k      = 41
		trials = 25
	)
	fmt.Printf("Adversary lab: n=%d t=%d λ=%g k=%d, %d trials each\n\n", n, t, lambda, k, trials)
	fmt.Printf("%-9s %-14s %-13s  %-22s %s\n", "protocol", "attack", "validity", "byz share of prefix", "structure damage")

	cases := []struct {
		protocol scenario.Protocol
		tb       scenario.TieBreak
		attack   scenario.Attack
	}{
		{scenario.Chain, scenario.TieRandom, scenario.AttackSilent},
		{scenario.Chain, scenario.TieRandom, scenario.AttackFlip},
		{scenario.Chain, scenario.TieAdversarial, scenario.AttackFork},
		{scenario.Chain, scenario.TieRandom, scenario.AttackTieBreak},
		{scenario.Chain, scenario.TieRandom, scenario.AttackEquivocate},
		{scenario.Dag, "", scenario.AttackSilent},
		{scenario.Dag, "", scenario.AttackFlip},
		{scenario.Dag, "", scenario.AttackPrivateChain},
	}
	for _, tc := range cases {
		b, err := scenario.Bind(scenario.Spec{
			Protocol: tc.protocol, N: n, T: t, Lambda: lambda, K: k,
			TieBreak: tc.tb, Attack: tc.attack,
		})
		if err != nil {
			log.Fatal(err)
		}
		prefix, err := b.ByzantinePrefix()
		if err != nil {
			log.Fatal(err)
		}
		order, err := b.OrderFunc()
		if err != nil {
			log.Fatal(err)
		}
		valid := 0
		var byzShare, damage float64
		for seed := uint64(0); seed < trials; seed++ {
			r, err := b.Run(seed)
			if err != nil {
				log.Fatal(err)
			}
			if r.Verdict.Validity {
				valid++
			}
			// The Byzantine share of the decision prefix, read from the
			// run's canonical order, and the blocks that do not contribute
			// to it: the chain's forks, or the blocks the DAG's order
			// leaves out.
			if n, byz, _ := prefix(r.Roster, r.Mem); n > 0 {
				byzShare += float64(byz) / float64(n)
			}
			if tc.protocol == scenario.Dag {
				size := r.Mem.Len()
				damage += float64(size - len(order(r.Mem, []int{size})[0]))
			} else {
				damage += float64(chain.Build(r.FinalView).Forks())
			}
		}
		dmgLabel := "orphaned blocks"
		if tc.protocol == scenario.Dag {
			dmgLabel = "blocks outside ordering"
		}
		fmt.Printf("%-9s %-14s %3d/%-9d  %-22.3f %.1f %s\n",
			tc.protocol, tc.attack, valid, trials, byzShare/trials, damage/trials, dmgLabel)
	}
	fmt.Println("\nReading the table: the fork attack needs adversarial ties (Theorem 5.3);")
	fmt.Println("the tie-break attack kills the chain at high λ (Theorem 5.4); the DAG")
	fmt.Println("wastes nothing and holds validity (Theorem 5.6).")
}
