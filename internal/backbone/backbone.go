// Package backbone measures the blockchain backbone properties — chain
// growth, chain quality and common prefix — over recorded protocol runs.
//
// Section 5.2 of the paper builds directly on the backbone analyses of
// Garay, Kiayias & Leonardos [9] and Ren [21]; this package makes those
// three properties first-class measurements so experiments can relate the
// paper's validity results to the classical backbone vocabulary:
//
//   - Chain growth: decided-structure length per Δ of virtual time.
//   - Chain quality: the fraction of honestly-authored blocks among the
//     first k blocks of the decided structure. Algorithm 5/6 decide on the
//     sign of the first k values, so validity under a value-flipping
//     adversary is exactly "chain quality > 1/2".
//   - Common prefix: across the *actual decision views* of every pair of
//     correct nodes (reconstructed from the run via Memory.ViewAt), the
//     number of trailing blocks that must be chopped from the shorter
//     decision prefix to make it a prefix of the other's. 0 means perfect
//     agreement on the decision data.
package backbone

import (
	"slices"

	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/node"
)

// Report holds the three backbone measurements for one run.
type Report struct {
	// Growth is decided-structure length per Δ.
	Growth float64
	// Quality is the honest fraction of the first-k decision prefix
	// (taken from the final view's canonical selection).
	Quality float64
	// CommonPrefixViolation is the maximum, over pairs of decided correct
	// nodes, of the chop depth between their first-k decision prefixes.
	CommonPrefixViolation int
	// Wasted is the fraction of blocks that do not contribute to the
	// decision structure (orphans for the chain, unordered for the DAG).
	Wasted float64
}

// chopDepth returns how many trailing elements of the shorter slice must
// be removed for it to be a prefix of the longer one.
func chopDepth(a, b []appendmem.MsgID) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	common := 0
	for common < n && a[common] == b[common] {
		common++
	}
	return n - common
}

// Analyze measures the backbone properties of a chain or DAG run. order
// is the run's canonical order oracle (scenario.Bound.OrderFunc): Analyze
// asks it once, for every decided correct node's decision-view size and
// the final size, in ascending order, so one index serves the whole
// analysis.
func Analyze(r *agreement.Result, k int, order func(*appendmem.Memory, []int) [][]appendmem.MsgID) Report {
	rep := Report{}
	var sizes []int
	for _, id := range r.Roster.Correct() {
		if r.Outcome.Decided[id] {
			sizes = append(sizes, r.DecideViewSize[id])
		}
	}
	slices.Sort(sizes)
	sizes = slices.Compact(sizes)
	decided := len(sizes)
	if final := r.Mem.Len(); decided == 0 || sizes[decided-1] < final {
		sizes = append(sizes, final)
	}
	orders := order(r.Mem, sizes)
	firstK := func(ids []appendmem.MsgID) []appendmem.MsgID { return ids[:min(len(ids), k)] }

	// Common prefix across the decided correct nodes' decision views.
	// chopDepth is taken as a max over unordered pairs, and equal views
	// chop nothing, so each distinct view size is visited once.
	for i := 0; i < decided; i++ {
		for j := i + 1; j < decided; j++ {
			if d := chopDepth(firstK(orders[i]), firstK(orders[j])); d > rep.CommonPrefixViolation {
				rep.CommonPrefixViolation = d
			}
		}
	}

	final := orders[len(orders)-1]
	if r.Duration > 0 {
		rep.Growth = float64(len(final)) / (float64(r.Duration) / r.Cfg.Delta)
	}
	if ids := firstK(final); len(ids) > 0 {
		byz, _ := agreement.ByzantineRuns(r.Roster, r.Mem, ids)
		rep.Quality = float64(len(ids)-byz) / float64(len(ids))
	}
	if r.TotalAppends > 0 {
		rep.Wasted = float64(r.TotalAppends-len(final)) / float64(r.TotalAppends)
	}
	return rep
}

// HonestShare returns the honest fraction of all appends in the run — the
// baseline chain quality would have with no structural advantage for
// either side (the honest token share).
func HonestShare(r *agreement.Result) float64 {
	if r.TotalAppends == 0 {
		return 0
	}
	return float64(r.CorrectAppends) / float64(r.TotalAppends)
}

// QualityImpliesValidity reports whether the run's verdict is consistent
// with its measured quality: under a −1-voting adversary and unanimous +1
// honest inputs, validity should hold iff quality > 1/2 in the prefix the
// nodes actually decided on. Small discrepancies can occur when different
// nodes decide on different prefixes; the function is used as a
// cross-check, not an assertion.
func QualityImpliesValidity(rep Report, verdict node.Verdict) bool {
	return (rep.Quality > 0.5) == verdict.Validity
}
