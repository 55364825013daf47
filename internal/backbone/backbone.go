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
	"sort"

	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
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

// prefixFor returns the decision prefix (first k block ids) of one view.
type prefixFor func(view appendmem.View, k int) []appendmem.MsgID

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

// analyze computes the report. prefix and finalStructured typically close
// over one cached index (chain.Cached / dag.Cached); analyze visits the
// per-node decision views in ascending size order and the final (largest)
// view last, so the index only ever extends — each block is processed once
// across the whole analysis instead of once per view.
func analyze(r *agreement.Result, k int, prefix prefixFor, finalStructured func() int, total int) Report {
	rep := Report{}

	// Common prefix across the decided correct nodes' decision views.
	// chopDepth is taken as a max over unordered pairs, so visiting the
	// views sorted by size leaves the result unchanged.
	var sizes []int
	for _, id := range r.Roster.Correct() {
		if !r.Outcome.Decided[id] || r.DecideViewSize[id] == 0 {
			continue
		}
		sizes = append(sizes, r.DecideViewSize[id])
	}
	sort.Ints(sizes)
	prefixes := make([][]appendmem.MsgID, 0, len(sizes))
	for _, size := range sizes {
		prefixes = append(prefixes, prefix(r.Mem.ViewAt(size), k))
	}
	for i := 0; i < len(prefixes); i++ {
		for j := i + 1; j < len(prefixes); j++ {
			if d := chopDepth(prefixes[i], prefixes[j]); d > rep.CommonPrefixViolation {
				rep.CommonPrefixViolation = d
			}
		}
	}

	structured := finalStructured()
	if r.Duration > 0 {
		rep.Growth = float64(structured) / (float64(r.Duration) / r.Cfg.Delta)
	}
	ids := prefix(r.FinalView, k)
	if len(ids) > 0 {
		honest := 0
		for _, id := range ids {
			if !r.Roster.IsByzantine(r.FinalView.Message(id).Author) {
				honest++
			}
		}
		rep.Quality = float64(honest) / float64(len(ids))
	}
	if total > 0 {
		rep.Wasted = float64(total-structured) / float64(total)
	}
	return rep
}

// AnalyzeChain measures the backbone properties of a chain (Algorithm 5)
// run. The canonical selection uses first-arrived tie-breaking, which is
// deterministic and view-only.
func AnalyzeChain(r *agreement.Result, k int) Report {
	idx := chain.NewCached()
	sel := func(view appendmem.View, k int) []appendmem.MsgID {
		ids := idx.At(view).SelectedChain(chain.FirstTieBreaker{})
		if len(ids) > k {
			ids = ids[:k]
		}
		return ids
	}
	final := func() int { return idx.At(r.FinalView).Height() }
	return analyze(r, k, sel, final, r.TotalAppends)
}

// AnalyzeDag measures the backbone properties of a DAG (Algorithm 6) run
// under the given pivot choice.
func AnalyzeDag(r *agreement.Result, k int, ghost bool) Report {
	idx := dag.NewCached()
	pivotOf := func(d *dag.Dag) []appendmem.MsgID {
		if ghost {
			return d.GhostPivot()
		}
		return d.LongestPivot()
	}
	sel := func(view appendmem.View, k int) []appendmem.MsgID {
		d := idx.At(view)
		ids := d.Linearize(pivotOf(d))
		if len(ids) > k {
			ids = ids[:k]
		}
		return ids
	}
	final := func() int {
		d := idx.At(r.FinalView)
		return len(d.Linearize(pivotOf(d)))
	}
	return analyze(r, k, sel, final, r.TotalAppends)
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
