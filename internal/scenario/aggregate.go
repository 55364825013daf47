package scenario

import (
	"fmt"
	"math"

	"repro/internal/runner"
)

// This file is the aggregation contract shared by the in-process sweep
// executor (exec.go) and the distributed coordinator (internal/distrib):
// per-trial metric vectors are produced in seed order, folded strictly in
// seed order, and finalized into MetricValues by the same code on both
// paths — which is what makes a distributed sweep byte-identical to the
// single-process run at the same seed. Rate metrics would merge exactly
// under any association (integer sums), but mean metrics are float sums,
// so partial aggregates are exchanged as per-trial vectors and the merge
// replays the exact left fold instead of adding chunk subtotals.

// ResolveMetrics resolves a spec's metric names (defaulted when empty)
// against the Metrics registry. The defs align with the returned names.
func ResolveMetrics(spec Spec) ([]string, []MetricDef, error) {
	names := spec.Metrics
	if len(names) == 0 {
		names = DefaultMetrics()
	}
	defs := make([]MetricDef, len(names))
	for i, name := range names {
		def, ok := Metrics.Lookup(name)
		if !ok {
			return nil, nil, fmt.Errorf("scenario: unknown metric %q (have %s)", name, Metrics.Help())
		}
		defs[i] = def
	}
	return names, defs, nil
}

// MetricExtractors binds each metric def against the bound scenario,
// yielding the per-run extractor closures the trial path evaluates.
func (b *Bound) MetricExtractors(defs []MetricDef) ([]func(*Result) float64, error) {
	extract := make([]func(*Result) float64, len(defs))
	for i, def := range defs {
		f, err := def.Bind(b)
		if err != nil {
			return nil, err
		}
		extract[i] = f
	}
	return extract, nil
}

// trialValues wraps a run function into the per-trial metric-vector
// function both executors fan out: one []float64 per trial, aligned with
// the extractors.
func trialValues(run func(seed uint64) *Result, extract []func(*Result) float64) func(seed uint64) []float64 {
	return func(seed uint64) []float64 {
		r := run(seed)
		vals := make([]float64, len(extract))
		for i, f := range extract {
			vals[i] = f(r)
		}
		return vals
	}
}

// RunTrialValues executes trials lo..hi-1 of the bound scenario (seeds
// Seed+lo .. Seed+hi-1) as one runner fan-out and returns their metric
// vectors in seed order. This is the unit of work a distributed lease
// covers; the vectors are exactly what the in-process executor folds.
func (b *Bound) RunTrialValues(extract []func(*Result) float64, lo, hi, workers int) [][]float64 {
	return runner.Trials(hi-lo, b.spec.Seed+uint64(lo), workers, trialValues(b.mustRun, extract))
}

// fold accumulates one trial's metric vector; exec.go documents why the
// sequential seed-order discipline matters.
func (a metricAcc) fold(vals []float64) metricAcc {
	if a.sum == nil {
		a.sum = make([]float64, len(vals))
		a.cnt = make([]int, len(vals))
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		a.sum[i] += v
		a.cnt[i]++
	}
	return a
}

// finalize turns the accumulated sums into the point's MetricValues.
func (a metricAcc) finalize(names []string, defs []MetricDef, trials int) []MetricValue {
	out := make([]MetricValue, len(defs))
	for i, def := range defs {
		mv := MetricValue{Name: names[i], Kind: def.Kind}
		if a.sum != nil {
			switch def.Kind {
			case KindRate:
				mv.Count = int(a.sum[i])
				mv.Value = a.sum[i] / float64(trials)
			case KindMean:
				mv.Count = a.cnt[i]
				if a.cnt[i] > 0 {
					mv.Value = a.sum[i] / float64(a.cnt[i])
				} else {
					mv.Value = math.NaN()
				}
			}
		} else {
			mv.Value = math.NaN()
		}
		out[i] = mv
	}
	return out
}

// FoldMetrics folds per-trial metric vectors (in seed order, concatenated
// across chunks in chunk order) into the point's MetricValues, replaying
// the in-process executor's fold bit for bit.
func FoldMetrics(names []string, defs []MetricDef, trials int, vals [][]float64) []MetricValue {
	var acc metricAcc
	for _, v := range vals {
		acc = acc.fold(v)
	}
	return acc.finalize(names, defs, trials)
}
