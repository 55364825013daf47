package agreement

import (
	"fmt"
	"slices"

	"repro/internal/appendmem"
	"repro/internal/node"
)

// This file is the invariant hook layer: named safety checks evaluated on
// a finished randomized run. The checks re-derive safety from the run's
// raw material — the outcome vector, the memory, and each node's recorded
// decision-view size — independently of the harness's own Verdict, so a
// harness bug cannot hide a violation, and the adversary-search loop
// (internal/search) can treat "a violation occurred" as an objective and
// promote the violating seed into a committed regression scenario.

// Invariant names, as reported in Violation.Invariant.
const (
	// InvConflictingDecisions: two correct nodes decided different values.
	InvConflictingDecisions = "conflicting-decisions"
	// InvDecidedPrefix: two correct nodes decided on k-prefixes that
	// disagree — the append-memory orderings their decisions read were
	// not prefix-consistent.
	InvDecidedPrefix = "decided-prefix"
	// InvValidityBound: the Byzantine share of a decided k-prefix exceeds
	// the configured bound (the resilience arguments need a correct
	// majority of every decided prefix).
	InvValidityBound = "validity-bound"
)

// Violation is one invariant failure on one run.
type Violation struct {
	Invariant string // one of the Inv* names
	Detail    string // human-readable specifics (nodes, values, positions)
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Violations is a reported violation list.
type Violations []Violation

// Has reports whether a named invariant fired.
func (vs Violations) Has(invariant string) bool {
	for _, v := range vs {
		if v.Invariant == invariant {
			return true
		}
	}
	return false
}

// Invariants bundles the safety checks with their protocol-specific
// inputs. The conflicting-decisions check always runs; Order enables the
// decided-prefix and validity-bound checks (nil disables them — e.g. the
// timestamp protocol has no structural order to re-derive).
type Invariants struct {
	// Order linearizes prefixes of one memory into the protocol's
	// canonical message order (longest chain walk, pivot linearization,
	// ...): one order per size in sizes, which are ascending and distinct,
	// so an implementation can build one index and grow or query it
	// through them. It must be deterministic — post-hoc analysis has no
	// protocol RNG — and must build its own indexes: it is the oracle the
	// harness's are checked against.
	Order func(mem *appendmem.Memory, sizes []int) [][]appendmem.MsgID
	// K is the decision threshold: the checks compare the first K ordered
	// messages of each node's decision view (0 means the whole order).
	K int
	// MaxByzFraction bounds the Byzantine share of any decided k-prefix;
	// 0 disables the validity-bound check.
	MaxByzFraction float64
}

// Check evaluates the invariants on one randomized-harness result.
func (iv Invariants) Check(r *Result) Violations {
	return iv.CheckRun(r.Roster, r.Outcome, r.Mem, r.DecideViewSize)
}

// CheckRun is Check over the raw run material, for callers holding a
// scenario-level result instead of an agreement.Result. At most one
// violation per invariant is reported — the first found, so output is
// deterministic and small.
func (iv Invariants) CheckRun(roster node.Roster, o *node.Outcome, mem *appendmem.Memory, decideViewSize []int) Violations {
	var out Violations
	correct := roster.Correct()

	// Conflicting decisions: all decided correct nodes must agree.
	first := appendmem.NodeID(-1)
	for _, id := range correct {
		if !o.Decided[id] {
			continue
		}
		if first < 0 {
			first = id
		} else if o.Decision[id] != o.Decision[first] {
			out = append(out, Violation{InvConflictingDecisions,
				fmt.Sprintf("node %d decided %+d, node %d decided %+d",
					first, o.Decision[first], id, o.Decision[id])})
			break
		}
	}

	if iv.Order == nil || mem == nil || decideViewSize == nil {
		return out
	}

	// Reconstruct each decided node's k-prefix from its exact decision
	// view (the memory's prefix of the size recorded at decision time),
	// ordering each distinct size once.
	var sizes []int
	for _, id := range correct {
		if o.Decided[id] {
			sizes = append(sizes, decideViewSize[id])
		}
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	orders := iv.Order(mem, sizes)
	type prefix struct {
		node appendmem.NodeID
		vals []int64
		byz  int
	}
	var prefixes []prefix
	for _, id := range correct {
		if !o.Decided[id] {
			continue
		}
		i, _ := slices.BinarySearch(sizes, decideViewSize[id])
		order := orders[i]
		if iv.K > 0 && len(order) > iv.K {
			order = order[:iv.K]
		}
		p := prefix{node: id, vals: make([]int64, len(order))}
		for j, mid := range order {
			p.vals[j] = mem.Message(mid).Value
		}
		p.byz, _ = ByzantineRuns(roster, mem, order)
		prefixes = append(prefixes, p)
	}

	// Decided-prefix agreement: every pair of decided prefixes must agree
	// value-for-value (comparing to the first suffices for a witness).
	if len(prefixes) > 1 {
		base := prefixes[0]
	scan:
		for _, p := range prefixes[1:] {
			n := len(base.vals)
			if len(p.vals) < n {
				n = len(p.vals)
			}
			for j := 0; j < n; j++ {
				if p.vals[j] != base.vals[j] {
					out = append(out, Violation{InvDecidedPrefix,
						fmt.Sprintf("nodes %d and %d disagree at ordered position %d (%+d vs %+d)",
							base.node, p.node, j, base.vals[j], p.vals[j])})
					break scan
				}
			}
			if len(p.vals) != len(base.vals) {
				out = append(out, Violation{InvDecidedPrefix,
					fmt.Sprintf("nodes %d and %d decided on prefixes of different length (%d vs %d)",
						base.node, p.node, len(base.vals), len(p.vals))})
				break
			}
		}
	}

	// Validity bound: the Byzantine share of every decided prefix.
	if iv.MaxByzFraction > 0 {
		for _, p := range prefixes {
			if len(p.vals) == 0 {
				continue
			}
			if f := float64(p.byz) / float64(len(p.vals)); f > iv.MaxByzFraction {
				out = append(out, Violation{InvValidityBound,
					fmt.Sprintf("node %d decided on a prefix with Byzantine share %.2f > %.2f",
						p.node, f, iv.MaxByzFraction)})
				break
			}
		}
	}
	return out
}

// ByzantineRuns counts the Byzantine-authored messages among ids, an
// ordered prefix of mem, and the longest run of consecutive ones: the
// quantities the validity bound, chain quality (§5.2) and Lemma 5.5's
// Byzantine runs read off a canonical order.
func ByzantineRuns(roster node.Roster, mem *appendmem.Memory, ids []appendmem.MsgID) (byz, longest int) {
	run := 0
	for _, id := range ids {
		if !roster.IsByzantine(mem.Message(id).Author) {
			run = 0
			continue
		}
		byz++
		run++
		longest = max(longest, run)
	}
	return byz, longest
}
