package scenario

import (
	"fmt"

	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/node"
)

// This file binds the agreement invariant layer to a scenario: the
// protocol's canonical order function, the spec's decision threshold and
// the resilience bound, packaged so every searched execution (and the
// "violations" metric) checks decided-prefix agreement, conflicting
// decisions and the validity fraction bound.

// DefaultMaxByzFraction bounds the Byzantine share of a decided k-prefix:
// the paper's resilience arguments need a correct majority.
const DefaultMaxByzFraction = 0.5

// OrderFunc returns the protocol's canonical linearization of a memory's
// prefixes (see agreement.Invariants.Order) — the longest-chain walk
// under the analysis tie-break, or the pivot linearization. The chain
// builds one index of the largest prefix and queries it at every size;
// the DAG grows one index through the ascending sizes and linearizes at
// each. Chain/dag randomized protocols only.
func (b *Bound) OrderFunc() (func(*appendmem.Memory, []int) [][]appendmem.MsgID, error) {
	switch b.spec.Protocol {
	case Chain:
		tb := analysisTieBreak(&b.spec)
		return func(mem *appendmem.Memory, sizes []int) [][]appendmem.MsgID {
			orders := make([][]appendmem.MsgID, len(sizes))
			if len(sizes) == 0 {
				return orders
			}
			t := chain.Build(mem.ViewAt(sizes[len(sizes)-1]))
			for i, s := range sizes {
				if tips := t.TipsAt(s); len(tips) > 0 {
					orders[i] = t.ChainTo(tb.Pick(tips, mem.ViewAt(s), nil))
				}
			}
			return orders
		}, nil
	case Dag:
		longest := b.spec.Pivot == PivotLongest
		return func(mem *appendmem.Memory, sizes []int) [][]appendmem.MsgID {
			orders := make([][]appendmem.MsgID, len(sizes))
			d := dag.Build(mem.ViewAt(0))
			for i, s := range sizes {
				d.Extend(mem.ViewAt(s))
				anchor := d.GhostPivot()
				if longest {
					anchor = d.LongestPivot()
				}
				orders[i] = d.Linearize(anchor)
			}
			return orders
		}, nil
	default:
		return nil, fmt.Errorf("scenario: canonical order applies to chain/dag only, not %q", b.spec.Protocol)
	}
}

// Invariants assembles the agreement invariant checker for the bound
// scenario. Chain/dag randomized scenarios get the full set (the order
// checks need the whole memory, so windowed mode is rejected); other
// randomized protocols get the conflicting-decisions check alone.
func (b *Bound) Invariants() (agreement.Invariants, error) {
	if b.sync {
		return agreement.Invariants{}, fmt.Errorf("scenario: invariants apply to randomized protocols only")
	}
	iv := agreement.Invariants{K: b.spec.K, MaxByzFraction: DefaultMaxByzFraction}
	if b.spec.Protocol != Chain && b.spec.Protocol != Dag {
		return iv, nil
	}
	if b.spec.Window > 0 {
		return agreement.Invariants{}, fmt.Errorf("scenario: invariant checks need the full memory and cannot run with window > 0")
	}
	order, err := b.OrderFunc()
	if err != nil {
		return agreement.Invariants{}, err
	}
	iv.Order = order
	return iv, nil
}

// CheckInvariants runs a bound invariant set on this result.
func (r *Result) CheckInvariants(iv agreement.Invariants) agreement.Violations {
	return iv.CheckRun(r.Roster, &node.Outcome{Decided: r.Decided, Decision: r.Decision}, r.Mem, r.DecideViewSize)
}

func init() {
	Metrics.Register("violations",
		"mean safety-invariant violations per run (conflicting decisions, decided prefixes, validity bound)",
		MetricDef{Kind: KindMean, Bind: randomizedOnly("violations",
			func(b *Bound) (func(*Result) float64, error) {
				iv, err := b.Invariants()
				if err != nil {
					return nil, err
				}
				return func(r *Result) float64 {
					return float64(len(r.CheckInvariants(iv)))
				}, nil
			})})
}
