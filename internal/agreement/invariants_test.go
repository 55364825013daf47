package agreement_test

import (
	"testing"

	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/xrand"
)

// lastValueRule is a deliberately unsafe protocol: it appends its input as
// a root block and decides the value of the newest message it can see as
// soon as k messages exist. Stale views make different nodes decide
// different values almost immediately — the invariant layer must catch it.
type lastValueRule struct{}

func (lastValueRule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	w.MustAppend(input, 0, []appendmem.MsgID{appendmem.None})
}

func (lastValueRule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	if view.Size() < k {
		return 0, false
	}
	return view.Message(appendmem.MsgID(view.Size() - 1)).Value, true
}

func TestInvariantsCatchUnsafeRule(t *testing.T) {
	iv := agreement.Invariants{} // conflicting-decisions needs no order
	caught := false
	for seed := uint64(1); seed <= 64; seed++ {
		cfg := agreement.RandomizedConfig{
			N: 6, T: 0, Lambda: 1, K: 3, Seed: seed,
			Inputs: node.SplitInputs(6, 3),
		}
		r := agreement.MustRun(cfg, lastValueRule{}, agreement.Silent{})
		vs := iv.Check(r)
		if has := vs.Has(agreement.InvConflictingDecisions); has != !r.Verdict.Agreement {
			t.Fatalf("seed %d: conflicting-decisions=%v but Verdict.Agreement=%v", seed, has, r.Verdict.Agreement)
		}
		if !r.Verdict.Agreement {
			caught = true
		}
	}
	if !caught {
		t.Fatal("the unsafe rule never disagreed in 64 seeds — the test exercises nothing")
	}
}

// chainOrder is the longest-chain canonical order with the first-tip
// analysis tie-break, as the scenario layer binds it.
func chainOrder(mem *appendmem.Memory, sizes []int) [][]appendmem.MsgID {
	orders := make([][]appendmem.MsgID, len(sizes))
	for i, s := range sizes {
		orders[i] = chain.Build(mem.ViewAt(s)).SelectedChain(chain.FirstTieBreaker{})
	}
	return orders
}

func TestDecidedPrefixViolation(t *testing.T) {
	// Node 0 decides on view [a]; node 1 decides later, when the Byzantine
	// sibling chain [b, c] has overtaken it. Same decision value, but the
	// ordered prefixes the decisions read disagree at position 0.
	mem := appendmem.New(3)
	mem.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{appendmem.None}) // a = id 0
	mem.Writer(2).MustAppend(-1, 0, []appendmem.MsgID{appendmem.None}) // b = id 1
	mem.Writer(2).MustAppend(-1, 0, []appendmem.MsgID{1})              // c = id 2

	roster := node.NewRoster(3, 1)
	o := node.NewOutcome(3)
	o.Decide(0, +1)
	o.Decide(1, +1)

	iv := agreement.Invariants{Order: chainOrder, K: 1, MaxByzFraction: 0.5}
	vs := iv.CheckRun(roster, o, mem, []int{1, 3, 0})
	if !vs.Has(agreement.InvDecidedPrefix) {
		t.Fatalf("decided-prefix disagreement not caught: %v", vs)
	}
	if vs.Has(agreement.InvConflictingDecisions) {
		t.Fatalf("decisions agree, conflicting-decisions must not fire: %v", vs)
	}
}

func TestValidityBoundViolation(t *testing.T) {
	// Both correct nodes decide on an all-Byzantine prefix.
	mem := appendmem.New(3)
	mem.Writer(2).MustAppend(-1, 0, []appendmem.MsgID{appendmem.None})
	mem.Writer(2).MustAppend(-1, 0, []appendmem.MsgID{0})

	roster := node.NewRoster(3, 1)
	o := node.NewOutcome(3)
	o.Decide(0, -1)
	o.Decide(1, -1)

	iv := agreement.Invariants{Order: chainOrder, K: 2, MaxByzFraction: 0.5}
	vs := iv.CheckRun(roster, o, mem, []int{2, 2, 0})
	if !vs.Has(agreement.InvValidityBound) {
		t.Fatalf("validity bound breach not caught: %v", vs)
	}
	if vs.Has(agreement.InvDecidedPrefix) || vs.Has(agreement.InvConflictingDecisions) {
		t.Fatalf("only the validity bound should fire: %v", vs)
	}

	// The same prefix passes with the bound disabled.
	iv.MaxByzFraction = 0
	if vs := iv.CheckRun(roster, o, mem, []int{2, 2, 0}); len(vs) != 0 {
		t.Fatalf("disabled bound still fires: %v", vs)
	}
}

func TestInvariantsCleanRun(t *testing.T) {
	mem := appendmem.New(3)
	mem.Writer(0).MustAppend(+1, 0, []appendmem.MsgID{appendmem.None})
	mem.Writer(1).MustAppend(+1, 0, []appendmem.MsgID{0})

	roster := node.NewRoster(3, 1)
	o := node.NewOutcome(3)
	o.Decide(0, +1)
	o.Decide(1, +1)

	iv := agreement.Invariants{Order: chainOrder, K: 2, MaxByzFraction: 0.5}
	if vs := iv.CheckRun(roster, o, mem, []int{2, 2, 0}); len(vs) != 0 {
		t.Fatalf("clean run reports violations: %v", vs)
	}
}
