package scenario

import (
	"slices"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
)

// TestOrderFuncMatchesPerViewBuild: the invariant oracle orders every
// decision size from one index per run; it must give, at every size, the
// order a from-scratch index of that prefix gives.
func TestOrderFuncMatchesPerViewBuild(t *testing.T) {
	specs := []Spec{
		{Protocol: Chain, N: 10, T: 3, Lambda: 1, K: 15, TieBreak: TieAdversarial, Attack: AttackFork},
		{Protocol: Chain, N: 10, T: 3, Lambda: 1, K: 15, Attack: AttackFlip},
		{Protocol: Dag, N: 10, T: 3, Lambda: 1, K: 15, Pivot: PivotGhost, Attack: AttackPrivateChain},
		{Protocol: Dag, N: 10, T: 3, Lambda: 1, K: 15, Pivot: PivotLongest, Attack: AttackFlip},
	}
	for _, spec := range specs {
		b := MustBind(spec)
		order, err := b.OrderFunc()
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			mem := b.Randomized(seed).Mem
			sizes := make([]int, 0, mem.Len()+1)
			for s := 0; s <= mem.Len(); s += 1 + int(seed) {
				sizes = append(sizes, s)
			}
			got := order(mem, sizes)
			for i, s := range sizes {
				view := mem.ViewAt(s)
				var want []appendmem.MsgID
				if spec.Protocol == Chain {
					want = chain.Build(view).SelectedChain(analysisTieBreak(&spec))
				} else {
					d := dag.Build(view)
					pivot := d.GhostPivot()
					if spec.Pivot == PivotLongest {
						pivot = d.LongestPivot()
					}
					want = d.Linearize(pivot)
				}
				if !slices.Equal(got[i], want) {
					t.Fatalf("%s/%s seed %d: order at size %d = %v, a fresh index gives %v",
						spec.Protocol, spec.Attack, seed, s, got[i], want)
				}
			}
		}
	}
}
