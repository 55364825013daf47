package scenario

import (
	"encoding/json"

	"repro/internal/agreement"
	"repro/internal/runner"
)

// Options tunes sweep execution (not the scenario itself — that lives in
// the Spec).
type Options struct {
	// Workers caps trial parallelism; 0 means GOMAXPROCS (runner's default).
	Workers int
}

// MetricValue is one aggregated metric at one sweep point.
type MetricValue struct {
	Name string     `json:"name"`
	Kind MetricKind `json:"-"`
	// Value is the success rate (KindRate) or the mean over the defined
	// runs (KindMean; NaN when no run defined the metric).
	Value float64 `json:"value"`
	// Count is the number of successes (KindRate) or of runs where the
	// metric was defined (KindMean).
	Count int `json:"count"`
}

// Ratio renders a rate metric as successes/trials.
func (m MetricValue) Ratio(trials int) runner.Ratio { return runner.Rate(m.Count, trials) }

// PointResult is one sweep point: the concrete spec, its coordinates
// along the sweep axes, and the aggregated metrics.
type PointResult struct {
	Spec    Spec          `json:"spec"`
	Coords  []Value       `json:"coords,omitempty"`
	Trials  int           `json:"trials"`
	Metrics []MetricValue `json:"metrics"`
}

// SweepResult is a fully executed spec: every cartesian point with its
// metrics, in sweep order (first axis outermost).
type SweepResult struct {
	Spec   Spec          `json:"spec"`
	Axes   []string      `json:"axes,omitempty"`
	Points []PointResult `json:"points"`
	// Reuse reports checkpointed prefix reuse; nil unless the spec enables
	// Checkpoint.
	Reuse *ReuseStats `json:"reuse,omitempty"`
}

// ReuseStats counts checkpointed trial prefixes over one sweep execution.
type ReuseStats struct {
	// Captured is the number of trials that snapshotted their prefix (the
	// lowest-confirmation point of each sweep group).
	Captured int `json:"captured"`
	// Resumed is the number of trials fast-forwarded from a snapshot
	// instead of re-simulating the shared prefix.
	Resumed int `json:"resumed"`
}

// cpGroup holds the per-trial checkpoints captured by the first-executed
// point of one sweep group (all axes equal except confirmation depth).
type cpGroup struct {
	confirm int
	cps     []*agreement.Checkpoint
}

// checkpointKey buckets sweep points that differ only in confirmation
// depth: the serialized spec with Confirm zeroed.
func checkpointKey(s Spec) string {
	s.Confirm = 0
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // Spec is a plain data struct; marshal cannot fail
	}
	return string(b)
}

// MustRunSpec is RunSpec for specs known valid (experiment code with
// compiled-in specs); it panics on error.
func MustRunSpec(spec Spec, o Options) *SweepResult {
	res, err := RunSpec(spec, o)
	if err != nil {
		panic(err)
	}
	return res
}

// metricAcc accumulates one point's trials in seed order. TrialsReduce
// folds sequentially, so in-place slice mutation is safe.
type metricAcc struct {
	sum []float64
	cnt []int
}

// RunSpec expands the spec's sweep, binds each point once, runs its
// trials through the runner's chunked fan-out and aggregates the named
// metrics.
// Binding or metric errors surface per point, before any trial runs.
func RunSpec(spec Spec, o Options) (*SweepResult, error) {
	names, defs, err := ResolveMetrics(spec)
	if err != nil {
		return nil, err
	}
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}

	points, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Spec: spec, Points: make([]PointResult, 0, len(points))}
	for _, ax := range spec.Sweep {
		out.Axes = append(out.Axes, ax.Name)
	}
	// Checkpointed prefix reuse across confirm-sweep groups: the first
	// point of each group (lowest confirmation when the axis ascends)
	// captures one checkpoint per trial; every later point with a deeper
	// confirmation resumes from it. Trial i's checkpoint lives at slot i,
	// so capture and resume are independent of the worker count — the
	// fan-out writes disjoint slots and the next point starts only after
	// the reduce barrier.
	var store map[string]*cpGroup
	if spec.Checkpoint {
		store = map[string]*cpGroup{}
		out.Reuse = &ReuseStats{}
	}
	for _, pt := range points {
		b, err := Bind(pt.Spec)
		if err != nil {
			return nil, err
		}
		extract, err := b.MetricExtractors(defs)
		if err != nil {
			return nil, err
		}
		run := b.mustRun
		var captured []*agreement.Checkpoint
		if pt.Spec.Checkpoint && !b.sync {
			key := checkpointKey(pt.Spec)
			base := pt.Spec.Seed
			switch grp := store[key]; {
			case grp == nil:
				captured = make([]*agreement.Checkpoint, trials)
				store[key] = &cpGroup{confirm: pt.Spec.Confirm, cps: captured}
				sink := captured
				run = func(seed uint64) *Result {
					cfg := b.randomizedConfig(seed, nil)
					idx := int(seed - base)
					cfg.CheckpointSink = func(cp *agreement.Checkpoint) { sink[idx] = cp }
					return fromRandomized(agreement.MustRun(cfg, b.rule, b.newAdv()))
				}
			case grp.confirm < pt.Spec.Confirm:
				// Valid resume: a deeper confirmation can only postpone the
				// first decision, so the capturing run and this one evolve
				// identically up to the capture instant.
				resumes := grp.cps
				run = func(seed uint64) *Result {
					cfg := b.randomizedConfig(seed, nil)
					if cp := resumes[int(seed-base)]; cp != nil {
						cfg.ResumeFrom = cp
					}
					return fromRandomized(agreement.MustRun(cfg, b.rule, b.newAdv()))
				}
				for _, cp := range resumes {
					if cp != nil {
						out.Reuse.Resumed++
					}
				}
			}
		}
		acc := runner.TrialsReduce(trials, pt.Spec.Seed, o.Workers, metricAcc{},
			trialValues(run, extract), metricAcc.fold)
		for _, cp := range captured {
			if cp != nil {
				out.Reuse.Captured++
			}
		}
		out.Points = append(out.Points, PointResult{Spec: pt.Spec, Coords: pt.Coords,
			Trials: trials, Metrics: acc.finalize(names, defs, trials)})
	}
	return out, nil
}
