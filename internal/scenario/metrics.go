package scenario

import (
	"fmt"
	"math"

	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
)

// MetricKind says how per-run metric values aggregate across trials.
type MetricKind int

const (
	// KindRate metrics return 0 or 1 per run; points report successes/trials.
	KindRate MetricKind = iota
	// KindMean metrics return a value per run; points report the mean over
	// the runs where the value is defined (NaN marks "undefined this run",
	// e.g. decide-time when nobody decided).
	KindMean
)

// MetricDef is one registered metric extractor. Bind resolves everything
// name-shaped once per sweep point (the spec's pivot for DAG order
// statistics, the decision threshold k, ...), so the returned extractor
// runs on the per-trial path with no lookups.
type MetricDef struct {
	Kind MetricKind
	Bind func(b *Bound) (func(*Result) float64, error)
}

// DefaultMetrics is the metric set used when a spec names none: the three
// agreement properties and their conjunction.
func DefaultMetrics() []string {
	return []string{"ok", "validity", "agreement", "termination"}
}

func boolMetric(pick func(*Result) bool) MetricDef {
	return MetricDef{Kind: KindRate, Bind: func(*Bound) (func(*Result) float64, error) {
		return func(r *Result) float64 {
			if pick(r) {
				return 1
			}
			return 0
		}, nil
	}}
}

// randomizedOnly wraps a bind so the metric rejects sync scenarios at
// bind time instead of reading fields the sync harness never fills.
func randomizedOnly(name string, bind func(b *Bound) (func(*Result) float64, error)) func(b *Bound) (func(*Result) float64, error) {
	return func(b *Bound) (func(*Result) float64, error) {
		if b.sync {
			return nil, fmt.Errorf("scenario: metric %q applies to randomized protocols only", name)
		}
		return bind(b)
	}
}

// analysisTieBreak is the tie-breaker the order metrics use to pick the
// canonical chain of a final view: the spec's rule when deterministic,
// first-tip when the spec uses (or defaults to) the randomized rule —
// post-hoc analysis has no protocol RNG to draw from.
func analysisTieBreak(s *Spec) chain.TieBreaker {
	if s.TieBreak == "" || s.TieBreak == TieRandom {
		return chain.FirstTieBreaker{}
	}
	def, _ := TieBreaks.Lookup(string(s.TieBreak))
	return def(s.N, s.T)
}

// orderedPrefix binds a chain/dag metric over the first k blocks of the
// run's canonical order, reducing each prefix with stat (maxByzRun or
// byzShare below).
func orderedPrefix(stat func(r *Result, ids []appendmem.MsgID) float64) func(b *Bound) (func(*Result) float64, error) {
	return func(b *Bound) (func(*Result) float64, error) {
		if b.spec.Window > 0 {
			// Order metrics rebuild the whole chain/dag from the final view;
			// a windowed run has retired that prefix.
			return nil, fmt.Errorf("scenario: order metrics need the full final view and cannot run with window > 0")
		}
		k := b.spec.K
		switch b.spec.Protocol {
		case Chain:
			tb := analysisTieBreak(&b.spec)
			return func(r *Result) float64 {
				ids := chain.Build(r.FinalView).SelectedChain(tb)
				if len(ids) == 0 {
					return math.NaN()
				}
				if len(ids) > k {
					ids = ids[:k]
				}
				return stat(r, ids)
			}, nil
		case Dag:
			pivot := b.spec.Pivot
			if pivot == "" {
				pivot = PivotGhost
			}
			longest := pivot == PivotLongest
			return func(r *Result) float64 {
				d := dag.Build(r.FinalView)
				anchor := d.GhostPivot()
				if longest {
					anchor = d.LongestPivot()
				}
				order := d.Linearize(anchor)
				if len(order) > k {
					order = order[:k]
				}
				return stat(r, order)
			}, nil
		default:
			return nil, fmt.Errorf("scenario: order metrics apply to chain/dag only, not %q", b.spec.Protocol)
		}
	}
}

func maxByzRun(r *Result, ids []appendmem.MsgID) float64 {
	maxRun, run := 0, 0
	for _, id := range ids {
		if r.Roster.IsByzantine(r.FinalView.Message(id).Author) {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	return float64(maxRun)
}

func byzShare(r *Result, ids []appendmem.MsgID) float64 {
	if len(ids) == 0 {
		return math.NaN()
	}
	byz := 0
	for _, id := range ids {
		if r.Roster.IsByzantine(r.FinalView.Message(id).Author) {
			byz++
		}
	}
	return float64(byz) / float64(len(ids))
}

func init() {
	Metrics.Register("ok",
		"run satisfied agreement, validity and termination",
		boolMetric(func(r *Result) bool { return r.Verdict.OK() }))
	Metrics.Register("validity",
		"decisions matched a unanimous correct input (Definition 2.1)",
		boolMetric(func(r *Result) bool { return r.Verdict.Validity }))
	Metrics.Register("agreement",
		"all decided correct nodes decided the same value",
		boolMetric(func(r *Result) bool { return r.Verdict.Agreement }))
	Metrics.Register("termination",
		"every correct node decided",
		boolMetric(func(r *Result) bool { return r.Verdict.Termination }))
	Metrics.Register("duration",
		"mean simulated time until the run ended (in Δ)",
		MetricDef{Kind: KindMean, Bind: func(*Bound) (func(*Result) float64, error) {
			return func(r *Result) float64 { return float64(r.Duration) }, nil
		}})
	Metrics.Register("appends",
		"mean appended blocks in the final view",
		MetricDef{Kind: KindMean, Bind: func(*Bound) (func(*Result) float64, error) {
			return func(r *Result) float64 { return float64(r.TotalAppends) }, nil
		}})
	Metrics.Register("byz-appends",
		"mean Byzantine-authored appends (randomized protocols)",
		MetricDef{Kind: KindMean, Bind: randomizedOnly("byz-appends",
			func(*Bound) (func(*Result) float64, error) {
				return func(r *Result) float64 { return float64(r.ByzAppends) }, nil
			})})
	Metrics.Register("byz-append-share",
		"mean Byzantine share of all appends (randomized protocols)",
		MetricDef{Kind: KindMean, Bind: randomizedOnly("byz-append-share",
			func(*Bound) (func(*Result) float64, error) {
				return func(r *Result) float64 {
					if r.TotalAppends == 0 {
						return math.NaN()
					}
					return float64(r.ByzAppends) / float64(r.TotalAppends)
				}, nil
			})})
	Metrics.Register("decide-time",
		"mean decision time of the decided correct nodes (in Δ; randomized protocols)",
		MetricDef{Kind: KindMean, Bind: randomizedOnly("decide-time",
			func(*Bound) (func(*Result) float64, error) {
				return func(r *Result) float64 {
					sum, cnt := 0.0, 0
					for _, id := range r.Roster.Correct() {
						if r.Decided[id] {
							sum += float64(r.DecideTime[id])
							cnt++
						}
					}
					if cnt == 0 {
						return math.NaN()
					}
					return sum / float64(cnt)
				}, nil
			})})
	Metrics.Register("mem-high-water",
		"mean peak live-message count (= appends unbounded; bounded near `window` in windowed mode)",
		MetricDef{Kind: KindMean, Bind: randomizedOnly("mem-high-water",
			func(*Bound) (func(*Result) float64, error) {
				return func(r *Result) float64 { return float64(r.MemHighWater) }, nil
			})})
	Metrics.Register("vis-lag",
		"mean append-propagation lag over the topology (in Δ; 0 on the complete/oracle path)",
		MetricDef{Kind: KindMean, Bind: randomizedOnly("vis-lag",
			func(*Bound) (func(*Result) float64, error) {
				return func(r *Result) float64 { return r.VisMeanLag }, nil
			})})
	Metrics.Register("max-byz-run",
		"mean longest Byzantine run in the first k ordered blocks (Lemma 5.5; chain/dag)",
		MetricDef{Kind: KindMean, Bind: orderedPrefix(maxByzRun)})
	Metrics.Register("byz-prefix-share",
		"mean Byzantine share of the first k ordered blocks (chain/dag)",
		MetricDef{Kind: KindMean, Bind: orderedPrefix(byzShare)})
}
