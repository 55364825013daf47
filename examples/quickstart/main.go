// Quickstart: the smallest end-to-end use of the library — Byzantine
// agreement on a BlockDAG in the append memory, 7 nodes of which 2 are
// Byzantine and run the Lemma 5.5 private-chain attack.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/appendmem"
	"repro/internal/scenario"
)

func main() {
	spec := scenario.Spec{
		Protocol: scenario.Dag, // Algorithm 6: BA on the BlockDAG
		N:        7, T: 2,      // 7 nodes, last 2 Byzantine
		Lambda: 0.5, // each node gets a memory-access token every 2Δ on average
		K:      21,  // decide on the sign of the first 21 ordered values
		Attack: scenario.AttackPrivateChain,
		Seed:   42,
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		log.Fatal(err)
	}
	r, err := b.Run(spec.Seed)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Byzantine agreement on the DAG (append memory model)")
	fmt.Printf("  n=%d t=%d λ=%g k=%d adversary=%s\n", spec.N, spec.T, spec.Lambda, spec.K, spec.Attack)
	fmt.Printf("  agreement:   %v\n", r.Verdict.Agreement)
	fmt.Printf("  validity:    %v\n", r.Verdict.Validity)
	fmt.Printf("  termination: %v\n", r.Verdict.Termination)
	fmt.Printf("  memory size: %d appends (%d Byzantine)\n", r.TotalAppends, r.ByzAppends)
	fmt.Printf("  duration:    %.2f Δ\n", float64(r.Duration))
	for i := 0; i < spec.N; i++ {
		id := appendmem.NodeID(i)
		if r.Roster.IsByzantine(id) {
			continue
		}
		fmt.Printf("  node %d decided %+d\n", i, r.Decision[i])
	}
}
