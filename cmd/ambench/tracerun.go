package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/chain"
	"repro/internal/experiments"
	"repro/internal/node"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// tracedShare is the share of one repetition's trials a traced pass covers.
const tracedShare = 5 // one fifth

// passResult is one traced pass: its per-layer metrics, its spans and the
// untraced serial trial times, which percentiles pool across passes.
type passResult struct {
	metrics  metricSet
	tracer   *tracer
	ops      int
	failed   int
	serialMs []float64
	digest   string // the suite's stream digest; empty for trial passes
}

// tracedRun repeats a pass until the budget is spent (at least once) and
// reports every per-layer metric as its median over the passes, except
// the trial-time percentiles, which are taken over the pooled trials.
func tracedRun(pass func() (*passResult, error), budget time.Duration) (metricSet, []*passResult, error) {
	var passes []*passResult
	begin := time.Now()
	var last time.Duration
	for len(passes) == 0 || time.Since(begin)+last <= budget {
		start := time.Now()
		p, err := pass()
		if err != nil {
			return nil, passes, err
		}
		last = time.Since(start)
		if len(passes) > 0 {
			p.tracer = nil // only the first pass's spans are written
		}
		passes = append(passes, p)
	}
	out := metricSet{}
	var serial []float64
	for _, d := range perLayer {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = p.metrics[d.name]
		}
		out[d.name] = median(vals)
	}
	for _, p := range passes {
		serial = append(serial, p.serialMs...)
	}
	if len(serial) > 0 {
		out["runner.trial_ms_p50"] = quantile(serial, 0.5)
		out["runner.trial_ms_p90"] = quantile(serial, 0.9)
	}
	return out, passes, nil
}

// zeroLayers is a per-layer metric set with every layer idle.
func zeroLayers() metricSet {
	m := metricSet{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// layerOf names the rule layer of a bound honest rule.
func layerOf(rule agreement.HonestRule) (string, error) {
	switch rule.(type) {
	case chainba.Rule:
		return "chainba", nil
	case dagba.Rule:
		return "dagba", nil
	}
	return "", fmt.Errorf("the traced run covers chain and dag rules, not %T", rule)
}

// harnessConfig builds one trial's harness config from the spec, field for
// field as scenario.Bound does for its own runs, so the traced run can hand
// the harness wrapped layers; equivalent checks the two stay in step. The
// graph is nil on the complete topology.
func harnessConfig(spec scenario.Spec, g *topology.Graph, seed uint64) (agreement.RandomizedConfig, error) {
	if spec.Inputs != "" && spec.Inputs != "same" {
		return agreement.RandomizedConfig{}, fmt.Errorf("the traced run supports the default inputs, not %q", spec.Inputs)
	}
	cfg := agreement.RandomizedConfig{
		N: spec.N, T: spec.T, Lambda: spec.Lambda, Rates: spec.Rates, Delta: spec.Delta, K: spec.K,
		Seed: seed, Inputs: node.AllSame(spec.N, +1), Crashes: spec.Crashes,
		FreshHonestReads: spec.FreshReads, StallAtSize: spec.StallAtSize, StallFor: spec.StallFor,
		AsyncDelayMax: spec.AsyncDelayMax, Window: spec.Window,
	}
	if g != nil {
		dm, err := delayModel(spec)
		if err != nil {
			return cfg, err
		}
		cfg.Topology, cfg.TopologyDelay = g, dm
	}
	name := spec.Access
	if name == "" {
		name = scenario.AccessPoisson
	}
	apply, ok := scenario.AccessModels.Lookup(string(name))
	if !ok {
		return cfg, fmt.Errorf("unknown access model %q", name)
	}
	apply(&cfg)
	return cfg, nil
}

func delayModel(spec scenario.Spec) (topology.DelayModel, error) {
	kind, err := topology.ParseDelayKind(spec.DelayDist)
	return topology.DelayModel{Kind: kind, Jitter: spec.LinkJitter}, err
}

// equivalent compares a traced trial with the untraced Bound.Run of the
// same seed.
func equivalent(traced *agreement.Result, plain *scenario.Result) error {
	switch {
	case traced.Verdict != plain.Verdict:
		return fmt.Errorf("verdict %+v vs %+v", traced.Verdict, plain.Verdict)
	case traced.TotalAppends != plain.TotalAppends:
		return fmt.Errorf("%d vs %d appends", traced.TotalAppends, plain.TotalAppends)
	case !slices.Equal(traced.DecideTime, plain.DecideTime):
		return fmt.Errorf("decide times %v vs %v", traced.DecideTime, plain.DecideTime)
	case !slices.Equal(traced.Outcome.Decision, plain.Decision) || !slices.Equal(traced.Outcome.Decided, plain.Decided):
		return fmt.Errorf("decisions %v vs %v", traced.Outcome.Decision, plain.Decision)
	}
	return nil
}

// trialPass is one traced pass over spec's trials: each trial runs once
// through the wrappers, once untraced through Bound.Run (the two must
// agree), and, unless the memory is windowed (its retired prefix is gone)
// or ties break at random (the replay has no node rng), is replayed layer
// by layer. Then the same trials run in parallel, untraced.
func trialPass(spec scenario.Spec, workers int) (*passResult, error) {
	tr := newTracer()
	m := zeroLayers()

	tr.begin("scenario.bind", -1, 0)
	start := time.Now()
	b, err := scenario.Bind(spec)
	m["scenario.bind_ms"] = ms(time.Since(start))
	tr.end()
	if err != nil {
		return nil, err
	}
	// The runs use the bound's own graph; building it again, as Bind does,
	// only times the topology layer.
	var g *topology.Graph
	if routes := b.Routes(); routes != nil {
		g = routes.Graph()
		tr.begin("topology.build", -1, 0)
		start = time.Now()
		built, err := scenario.BuildTopology(spec)
		if err == nil {
			topology.NewRoutes(built)
		}
		m["topology.build_ms"] = ms(time.Since(start))
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	layer, err := layerOf(b.Rule())
	if err != nil {
		return nil, err
	}
	names := namesFor(layer)
	replay := spec.Window == 0
	if r, ok := b.Rule().(chainba.Rule); ok {
		_, random := r.TB.(chain.RandomTieBreaker)
		replay = replay && !random
	}

	p := &passResult{tracer: tr, ops: spec.Trials}
	var st replayStats
	var untraced time.Duration
	hits, byzAppends := 0, 0
	for i := 0; i < spec.Trials; i++ {
		seed := spec.Seed + uint64(i)
		cfg, err := harnessConfig(spec, g, seed)
		if err != nil {
			return nil, err
		}
		rec := &trialRec{tr: tr, trial: i}
		rule := &tracedRule{inner: b.Rule(), rec: rec, names: names, node: -1}
		adv := &tracedAdversary{inner: b.NewAdversary(), rec: rec}
		tr.begin("agreement.run", i, 0)
		res, err := agreement.RunRandomized(cfg, rule, adv)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("traced trial %d: %w", i, err)
		}
		start = time.Now()
		plain, err := b.Run(seed)
		d := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("untraced trial %d: %w", i, err)
		}
		untraced += d
		p.serialMs = append(p.serialMs, ms(d))
		if err := equivalent(res, plain); err != nil {
			return nil, fmt.Errorf("trial %d (seed %d): traced and untraced runs differ: %w", i, seed, err)
		}
		hits += rec.decideHits
		byzAppends += rec.byzAppends
		if replay {
			if err := replayTrial(&st, rec, res, b.Rule(), g, spec); err != nil {
				return nil, fmt.Errorf("trial %d (seed %d): %w", i, seed, err)
			}
		}
	}

	tr.begin("runner.parallel", -1, 0)
	start = time.Now()
	_, err = runSweep(spec, workers)
	parallel := time.Since(start)
	tr.end()
	if err != nil {
		return nil, err
	}

	sum, err := tr.summary()
	if err != nil {
		return nil, err
	}
	n := float64(spec.Trials)
	perTrialUs := func(d int64) float64 { return float64(d) / 1e3 / n }
	run := sum["agreement.run"]
	app, dec, cmp, grant := sum[names.append], sum[names.decide], sum[names.compact], sum["adversary.grant"]
	m["agreement.run_us"] = perTrialUs(run.total)
	m["agreement.self_us"] = perTrialUs(run.self)
	m[layer+".append.calls"] = float64(app.count) / n
	m[layer+".append_us"] = perTrialUs(app.total)
	m[layer+".decide.calls"] = float64(dec.count) / n
	m[layer+".decide_us"] = perTrialUs(dec.total)
	m[layer+".decide_hit_ratio"] = ratio(float64(hits), float64(dec.count))
	m[layer+".compact.calls"] = float64(cmp.count) / n
	m[layer+".compact_us"] = perTrialUs(cmp.total)
	m["adversary.grant.calls"] = float64(grant.count) / n
	m["adversary.grant_us"] = perTrialUs(grant.total)
	m["adversary.grant_use_ratio"] = ratio(float64(byzAppends), float64(grant.count))

	// The unexplained remainder is untraced trial time minus the layer
	// times: the replayed layers and the adversary when the replay ran,
	// the rule and adversary spans when it could not.
	explained := app.total + dec.total + cmp.total + grant.total
	if replay {
		st.metrics(m, layer, g != nil)
		explained = st.total().Nanoseconds() + grant.total
	}
	m["unexplained_us"] = perTrialUs(untraced.Nanoseconds() - explained)
	m["runner.parallel_eff"] = untraced.Seconds() / (parallel.Seconds() * float64(workers))
	m["trace_overhead_frac"] = float64(run.total-untraced.Nanoseconds()) / float64(untraced.Nanoseconds())
	p.metrics = m
	return p, nil
}

// replayTrial replays one traced trial's layers, each phase under a span.
func replayTrial(st *replayStats, rec *trialRec, res *agreement.Result, rule agreement.HonestRule, g *topology.Graph, spec scenario.Spec) error {
	tr := rec.tr
	st.trials++
	tr.begin("replay.appendmem", rec.trial, 0)
	replayAppends(st, res.Mem)
	tr.end()
	var err error
	switch r := rule.(type) {
	case chainba.Rule:
		tr.begin("replay.chain", rec.trial, 0)
		err = replayChain(st, rec, res.Mem, r, spec.K)
		tr.end()
	case dagba.Rule:
		tr.begin("replay.dag", rec.trial, 0)
		err = replayDag(st, rec, res.Mem, r, spec.K)
		tr.end()
	}
	if err != nil || g == nil {
		return err
	}
	dm, err := delayModel(spec)
	if err != nil {
		return err
	}
	tr.begin("replay.access", rec.trial, 0)
	defer tr.end()
	return replayVisibility(st, rec, res, g, dm)
}

// metrics stores the replayed layers' per-trial metrics; layer is the rule
// layer, which fixes the index layer the replay drove.
func (st *replayStats) metrics(m metricSet, layer string, topo bool) {
	n := float64(st.trials)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / n }
	idx := "chain"
	if layer == "dagba" {
		idx = "dag"
	}
	m[idx+".extend_us"] = us(st.extend)
	m[idx+".blocks_indexed"] = float64(st.blocks) / n
	if idx == "chain" {
		m["chain.select_us"] = us(st.selectTip)
		m["chain.prefix_us"] = us(st.prefix)
	} else {
		m["dag.pivot_us"] = us(st.pivot)
		m["dag.order_us"] = us(st.order)
		m["dag.order_allocs"] = ratio(float64(st.orderAllocs), float64(st.orderCalls))
		m["dag.order_useful_ratio"] = ratio(float64(st.useful), float64(st.linearized))
	}
	m["appendmem.append_ns"] = ratio(float64(st.appendTime.Nanoseconds()), float64(st.appends))
	m["appendmem.allocs_per_append"] = ratio(float64(st.appendAllocs), float64(st.appends))
	if topo {
		m["access.vis_sync_us"] = us(st.visTime)
		m["access.vis_deliveries"] = float64(st.deliveries) / n
	}
}

// suitePass runs each experiment alone, then all of them concurrently as
// amexp does. Both must produce the same results.
func suitePass(es []experiments.Experiment, opts experiments.Options) (*passResult, error) {
	tr := newTracer()
	m := zeroLayers()
	var alone []*experiments.Result
	var sum time.Duration
	for _, e := range es {
		tr.begin("experiments."+e.ID, -1, 0)
		start := time.Now()
		alone = append(alone, experiments.Run(e, opts))
		d := time.Since(start)
		tr.end()
		sum += d
		m[experimentMetric(e.ID)] = ms(d)
	}
	tr.begin("experiments.stream", -1, 0)
	start := time.Now()
	out, err := runSuite(es, opts)
	stream := time.Since(start)
	tr.end()
	if err != nil {
		return nil, err
	}
	if _, err := tr.summary(); err != nil {
		return nil, err
	}
	d, err := suiteDigest(alone)
	if err != nil {
		return nil, err
	}
	if d != out.digest {
		return nil, fmt.Errorf("experiments run alone digest %s, run concurrently %s", d, out.digest)
	}
	m["experiments.stream_overlap"] = sum.Seconds() / stream.Seconds()
	return &passResult{metrics: m, tracer: tr, ops: out.ops, failed: out.failed, digest: out.digest}, nil
}
