package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/experiments"
)

// experimentMetric names the per-layer metric of one experiment run alone.
func experimentMetric(id string) string { return "experiments." + id + "_ms" }

// metricDef names one reported metric, its unit, and whether "lower" or
// "higher" values are better.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the simulator waits on or pays for, measured
// with tracing off. An op is one trial, or one experiment in paper-quick.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"bytes_per_op", "B", "lower"},
}

// perLayer is what the traced run attributes to each layer of the stack.
// Times and counts are per traced trial unless the name says otherwise; a
// layer the workload never calls reports 0. Ratios of useful outcomes to
// attempts are better higher; everything else is work, time or waste.
var perLayer = func() []metricDef {
	lower := func(name, unit string) metricDef { return metricDef{name, unit, "lower"} }
	higher := func(name string) metricDef { return metricDef{name, "ratio", "higher"} }
	defs := []metricDef{
		lower("agreement.run_us", "us"),
		lower("agreement.self_us", "us"),
	}
	for _, rule := range []string{"chainba", "dagba"} {
		defs = append(defs,
			lower(rule+".append.calls", "count"),
			lower(rule+".append_us", "us"),
			lower(rule+".decide.calls", "count"),
			lower(rule+".decide_us", "us"),
			higher(rule+".decide_hit_ratio"),
			lower(rule+".compact.calls", "count"),
			lower(rule+".compact_us", "us"),
		)
	}
	defs = append(defs,
		lower("adversary.grant.calls", "count"),
		lower("adversary.grant_us", "us"),
		higher("adversary.grant_use_ratio"),
		lower("chain.extend_us", "us"),
		lower("chain.blocks_indexed", "count"),
		lower("chain.select_us", "us"),
		lower("chain.prefix_us", "us"),
		lower("dag.extend_us", "us"),
		lower("dag.blocks_indexed", "count"),
		lower("dag.pivot_us", "us"),
		lower("dag.order_us", "us"),
		lower("dag.order_allocs", "count"),
		higher("dag.order_useful_ratio"),
		lower("appendmem.append_ns", "ns"),
		lower("appendmem.allocs_per_append", "count"),
		lower("access.vis_sync_us", "us"),
		lower("access.vis_deliveries", "count"),
		lower("unexplained_us", "us"),
		lower("scenario.bind_ms", "ms"),
		lower("topology.build_ms", "ms"),
		lower("runner.trial_ms_p50", "ms"),
		lower("runner.trial_ms_p90", "ms"),
		higher("runner.parallel_eff"),
		lower("trace_overhead_frac", "ratio"),
	)
	for _, e := range experiments.All() {
		defs = append(defs, lower(experimentMetric(e.ID), "ms"))
	}
	return append(defs, higher("experiments.stream_overlap"))
}()

// metricValue is one reported number in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders them in table order.
type metricSet map[string]float64

// render checks that every metric of defs is present and finite and returns
// the result-line map.
func (m metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite: %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// table renders the metrics as aligned "name value unit" lines.
func (m metricSet) table(defs []metricDef) string {
	var b strings.Builder
	for _, d := range defs {
		fmt.Fprintf(&b, "  %-30s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
	return b.String()
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is num/den, or 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
