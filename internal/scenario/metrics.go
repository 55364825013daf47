package scenario

import (
	"fmt"
	"math"
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

// orderedPrefix binds a chain/dag metric over the first k blocks of the
// canonical order of the run's final view (ByzantinePrefix), reducing the
// prefix's Byzantine count and longest Byzantine run (of n > 0 blocks)
// with stat. An empty order is undefined (NaN): the run appended nothing.
func orderedPrefix(stat func(byz, longest, n int) float64) func(b *Bound) (func(*Result) float64, error) {
	return func(b *Bound) (func(*Result) float64, error) {
		if b.spec.Window > 0 {
			// Order metrics rebuild the whole chain/dag from the final view;
			// a windowed run has retired that prefix.
			return nil, fmt.Errorf("scenario: order metrics need the full final view and cannot run with window > 0")
		}
		prefix, err := b.ByzantinePrefix()
		if err != nil {
			return nil, err
		}
		return func(r *Result) float64 {
			n, byz, longest := prefix(r.Roster, r.Mem)
			if n == 0 {
				return math.NaN()
			}
			return stat(byz, longest, n)
		}, nil
	}
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
		MetricDef{Kind: KindMean, Bind: orderedPrefix(func(_, longest, _ int) float64 {
			return float64(longest)
		})})
	Metrics.Register("byz-prefix-share",
		"mean Byzantine share of the first k ordered blocks (chain/dag)",
		MetricDef{Kind: KindMean, Bind: orderedPrefix(func(byz, _, n int) float64 {
			return float64(byz) / float64(n)
		})})
}
