// Package search optimizes over the attack-parameter space of a
// parameterized adversary template: given a base scenario (protocol, n,
// t, λ, ...), it looks for the parameter assignment that maximizes an
// objective — the disagreement rate, or the mean decision latency —
// instead of trusting the hand-coded presets to be the worst case.
//
// The optimizer is deliberately simple and deterministic: a candidate
// pool (the preset, a coarse grid over the schema, and seeded-random
// samples) is evaluated under successive halving — every candidate gets
// a small trial budget, survivors re-run at larger budgets — so most of
// the budget concentrates on the strongest parameterizations. The same
// seed yields the same candidate order, the same rung decisions and the
// same winner, regardless of worker count or fleet shape: evaluations go
// through distrib.Run, which without workers or a cache is
// scenario.RunSpec and otherwise byte-identical to it, and rung survival
// orders by (score, index).
// Escalating a survivor from a small rung to a larger one re-runs the
// same leading trial chunks, which a distrib result cache serves by
// content address — so halving's apparent re-execution cost mostly
// disappears when a cache is configured.
package search

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/adversary"
	"repro/internal/distrib"
	"repro/internal/scenario"
	"repro/internal/xrand"
)

// Objective selects what the search maximizes.
type Objective string

// Objectives.
const (
	// Disagreement maximizes 1 − agreement rate: the fraction of trials
	// where two correct nodes decide different values.
	Disagreement Objective = "disagreement"
	// Latency maximizes the mean decision time (in Δ) across trials.
	Latency Objective = "latency"
)

// Objectives enumerates the valid objective names.
func Objectives() []string { return []string{string(Disagreement), string(Latency)} }

// Metric is the scenario metric the objective reads.
func (o Objective) Metric() (string, error) {
	switch o {
	case Disagreement:
		return "agreement", nil
	case Latency:
		return "decide-time", nil
	}
	return "", fmt.Errorf("search: unknown objective %q (want %s)", o, strings.Join(Objectives(), " | "))
}

// Score turns the metric value into the maximized score.
func (o Objective) Score(metric float64) float64 {
	switch o {
	case Disagreement:
		return 1 - metric
	default: // Latency: an undecided run has no latency to maximize.
		if math.IsNaN(metric) {
			return 0
		}
		return metric
	}
}

// Config declares one search.
type Config struct {
	// Spec is the base scenario: everything but the attack parameters is
	// held fixed. Its attack must carry a parameter schema and its Sweep
	// must be empty (the search supplies the variation). Spec.Seed is the
	// trial base seed, exactly as in a sweep.
	Spec scenario.Spec
	// Objective selects the maximized quantity; "" means Disagreement.
	Objective Objective
	// Budget is the total trial budget across all rungs; it determines the
	// candidate pool size. 0 means DefaultBudget.
	Budget int
	// Seed drives candidate sampling (the random portion of the pool). The
	// same seed yields the same candidates in the same order — and, since
	// evaluation is deterministic, the same trajectory and winner.
	Seed uint64
	// Rungs are the successive-halving trial budgets, ascending; nil means
	// DefaultRungs. A single rung degenerates to plain grid+random search.
	Rungs []int
	// Eta is the halving rate: each rung keeps ceil(active/Eta) survivors.
	// 0 means DefaultEta.
	Eta int
	// Distrib configures the evaluation backend — workers, result cache,
	// inline parallelism. With neither workers nor a cache each evaluation
	// is one scenario.RunSpec call at Distrib.InlineWorkers, and Stats
	// counts no leases.
	Distrib distrib.Config
}

// Defaults.
const (
	DefaultBudget = 4800
	DefaultEta    = 4
)

// DefaultRungs returns the default successive-halving schedule. The first
// rung matches distrib.DefaultChunkSize and each rung is a multiple of
// the previous, so a result cache serves every lower-rung chunk verbatim
// when a survivor escalates.
func DefaultRungs() []int { return []int{16, 64, 256} }

// Candidate is one attack parameterization under consideration.
type Candidate struct {
	// Index is the candidate's position in the deterministic generation
	// order; ties in score break toward the lower index.
	Index int
	// Origin records how the candidate was produced: "preset", "grid" or
	// "random".
	Origin string
	// Params is the full parameter assignment (every schema parameter set
	// explicitly); empty for the preset candidate.
	Params map[string]scenario.Value
}

// Text renders the candidate's assignment as "name=value ..." in schema
// declaration order (stable across runs).
func (c Candidate) Text(schema adversary.Schema) string {
	if len(c.Params) == 0 {
		return "(preset)"
	}
	parts := make([]string, 0, len(c.Params))
	for _, ps := range schema {
		if v, ok := c.Params[ps.Name]; ok {
			parts = append(parts, ps.Name+"="+v.Text())
		}
	}
	return strings.Join(parts, " ")
}

// Eval is one candidate's measured performance at one rung.
type Eval struct {
	Candidate
	// Trials is the rung budget the scores were measured at.
	Trials int
	// Metric is the raw objective metric (agreement rate or mean decision
	// latency); Score is the maximized transform of it.
	Metric float64
	Score  float64
	// Violations is the mean number of invariant violations per trial
	// (the "violations" metric): every searched execution runs under the
	// agreement invariant hooks, so a safety break surfaces here even
	// when the objective would not reward it.
	Violations float64
}

// Rung summarizes one successive-halving round.
type Rung struct {
	Trials    int // per-candidate trial budget
	Evaluated int // candidates evaluated
	Kept      int // survivors advanced to the next rung
	Best      Eval
}

// Result is one completed search.
type Result struct {
	Objective  Objective
	MetricName string
	Seed       uint64
	Budget     int
	Candidates int
	TrialsUsed int // nominal trials evaluated (cache hits included)
	Best       Eval
	// Final is the last rung's leaderboard, best first.
	Final []Eval
	Rungs []Rung
	Stats distrib.Stats
}

// Run executes the search. Errors surface eagerly: the base spec is
// validated (bound) with the preset parameters before any trial runs.
func Run(cfg Config) (*Result, error) {
	spec := cfg.Spec
	if len(spec.Sweep) > 0 {
		return nil, fmt.Errorf("search: base spec must not sweep (the search varies attack parameters); drop the sweep")
	}
	schema, err := schemaOf(spec)
	if err != nil {
		return nil, err
	}
	obj := cfg.Objective
	if obj == "" {
		obj = Disagreement
	}
	metricName, err := obj.Metric()
	if err != nil {
		return nil, err
	}
	spec.Metrics = []string{metricName, "violations"}
	if _, err := scenario.Bind(spec); err != nil {
		return nil, err
	}

	rungs := cfg.Rungs
	if len(rungs) == 0 {
		rungs = DefaultRungs()
	}
	for i, r := range rungs {
		if r <= 0 || (i > 0 && r <= rungs[i-1]) {
			return nil, fmt.Errorf("search: rungs must be positive and ascending, got %v", rungs)
		}
	}
	eta := cfg.Eta
	if eta <= 0 {
		eta = DefaultEta
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = DefaultBudget
	}

	// Pool size: successive halving costs about Σ rungs[i]/eta^i trials
	// per initial candidate (each rung keeps a 1/eta fraction).
	unit, div := 0.0, 1.0
	for _, r := range rungs {
		unit += float64(r) / div
		div *= float64(eta)
	}
	pool := int(float64(budget) / unit)
	if pool < 2 {
		pool = 2 // the preset plus at least one challenger
	}
	cands := Generate(schema, presetAssignments(spec, schema), pool, cfg.Seed)

	res := &Result{Objective: obj, MetricName: metricName, Seed: cfg.Seed,
		Budget: budget, Candidates: len(cands)}
	active := make([]Eval, len(cands))
	for i, c := range cands {
		active[i] = Eval{Candidate: c}
	}
	for ri, rung := range rungs {
		for i := range active {
			ev, err := evaluate(spec, active[i].Candidate, obj, metricName, rung, cfg.Distrib, &res.Stats)
			if err != nil {
				return nil, err
			}
			active[i] = ev
			res.TrialsUsed += rung
		}
		// Score descending, index ascending: the order is total, so the
		// trajectory cannot depend on sort internals or map iteration.
		sort.SliceStable(active, func(i, j int) bool {
			if active[i].Score != active[j].Score {
				return active[i].Score > active[j].Score
			}
			return active[i].Index < active[j].Index
		})
		keep := len(active)
		if ri < len(rungs)-1 {
			keep = (len(active) + eta - 1) / eta
			if keep < 1 {
				keep = 1
			}
		}
		res.Rungs = append(res.Rungs, Rung{Trials: rung, Evaluated: len(active), Kept: keep, Best: active[0]})
		active = active[:keep]
		if len(active) == 1 && ri < len(rungs)-1 {
			// A lone survivor still escalates: the final rung's budget is
			// what the winner's headline number is measured at.
			continue
		}
	}
	res.Final = active
	res.Best = active[0]
	return res, nil
}

// presetAssignments collects the explicit parameter assignments of every
// OTHER registered preset sharing the base attack's template (same
// parameter names, applicable to the base protocol). Seeding the pool
// with them makes "searched ≥ every hand-coded preset" hold by
// construction up to rung-elimination noise: each preset is a candidate,
// scored on the same seeds, so the winner can only match or beat it. The
// base attack's own preset is candidate 0 (the empty assignment) and is
// skipped here; its canonical key would collide anyway.
func presetAssignments(spec scenario.Spec, schema adversary.Schema) []map[string]scenario.Value {
	baseAttack := spec.Attack
	if baseAttack == "" {
		baseAttack = scenario.AttackSilent
	}
	var out []map[string]scenario.Value
	for _, name := range scenario.ParameterizedAttacks() {
		if scenario.Attack(name) == baseAttack {
			continue
		}
		def, ok := scenario.Attacks.Lookup(name)
		if !ok || !sameNames(def.Schema, schema) || !attackApplies(def, spec.Protocol) {
			continue
		}
		sp := spec
		sp.Attack = scenario.Attack(name)
		sp.AttackParams = nil
		if m, err := scenario.ExplicitAttackParams(sp); err == nil {
			out = append(out, m)
		}
	}
	return out
}

// sameNames reports whether two schemas declare the same parameter set
// in the same order — the test for "same template".
func sameNames(a, b adversary.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			return false
		}
	}
	return true
}

// attackApplies mirrors the registry's protocol gate: an empty Protocols
// list means every randomized protocol.
func attackApplies(def scenario.AttackDef, p scenario.Protocol) bool {
	if len(def.Protocols) == 0 {
		return def.New != nil
	}
	for _, ap := range def.Protocols {
		if ap == p {
			return true
		}
	}
	return false
}

// schemaOf resolves the base spec's attack schema, rejecting
// unparameterized attacks.
func schemaOf(spec scenario.Spec) (adversary.Schema, error) {
	attackName := spec.Attack
	if attackName == "" {
		attackName = scenario.AttackSilent
	}
	def, ok := scenario.Attacks.Lookup(string(attackName))
	if !ok {
		return nil, fmt.Errorf("search: unknown attack %q (have %s)", attackName, scenario.Attacks.Help())
	}
	if def.Schema == nil {
		return nil, fmt.Errorf("search: attack %q has no parameter schema to search (searchable attacks: %s)",
			attackName, strings.Join(scenario.ParameterizedAttacks(), " | "))
	}
	return def.Schema, nil
}

// evaluate measures one candidate at one rung via distrib.Run (which is
// scenario.RunSpec without workers or a cache).
func evaluate(base scenario.Spec, c Candidate, obj Objective, metricName string,
	trials int, dcfg distrib.Config, acc *distrib.Stats) (Eval, error) {
	sp := base
	sp.Trials = trials
	if len(c.Params) > 0 {
		// The candidate's assignment is complete, so it replaces rather
		// than merges any base overrides.
		sp.AttackParams = c.Params
	}
	res, stats, err := distrib.Run(sp, dcfg)
	if err != nil {
		return Eval{}, fmt.Errorf("search: candidate %d (%s): %w", c.Index, c.Origin, err)
	}
	acc.Points += stats.Points
	acc.Leases += stats.Leases
	acc.FromCache += stats.FromCache
	acc.Dispatched += stats.Dispatched
	acc.Inline += stats.Inline
	acc.Retries += stats.Retries
	acc.LostWorker += stats.LostWorker
	ev := Eval{Candidate: c, Trials: trials}
	for _, mv := range res.Points[0].Metrics {
		switch mv.Name {
		case metricName:
			ev.Metric = mv.Value
			ev.Score = obj.Score(mv.Value)
		case "violations":
			if !math.IsNaN(mv.Value) {
				ev.Violations = mv.Value
			}
		}
	}
	return ev, nil
}

// Generate builds the deterministic candidate pool: the base preset
// first, then the warm starts (the other registered presets of the same
// template — hand-coded strategies the search must not lose to), then up
// to half the remaining slots from a coarse grid over the schema (evenly
// subsampled in lexicographic order when the full grid exceeds the
// allotment), then seeded-random assignments until the pool is full.
// Duplicates (random re-draws of a grid point, say) are skipped, so every
// candidate spends its budget on a distinct parameterization.
func Generate(schema adversary.Schema, warm []map[string]scenario.Value, pool int, seed uint64) []Candidate {
	cands := []Candidate{{Index: 0, Origin: "preset"}}
	seen := map[string]bool{}
	add := func(origin string, params map[string]scenario.Value) {
		key := canon(schema, params)
		if seen[key] {
			return
		}
		seen[key] = true
		cands = append(cands, Candidate{Index: len(cands), Origin: origin, Params: params})
	}
	for _, w := range warm {
		if len(cands) < pool {
			add("preset", w)
		}
	}

	grid := gridAssignments(schema)
	gridSlots := (pool - 1) / 2
	if gridSlots > len(grid) {
		gridSlots = len(grid)
	}
	for i := 0; i < gridSlots && len(cands) < pool; i++ {
		// Even subsampling keeps coverage spread over every parameter when
		// the full cartesian grid exceeds the slot allotment.
		add("grid", grid[i*len(grid)/gridSlots])
	}

	rng := xrand.New(seed, 0x5ea2c4) // fixed stream: the seed alone selects the trajectory
	for attempts := 0; len(cands) < pool && attempts < 16*pool; attempts++ {
		add("random", randomAssignment(schema, rng))
	}
	return cands
}

// canon is the dedup key of an assignment: name=value joined in schema
// order (the preset's empty assignment canonicalizes to "").
func canon(schema adversary.Schema, params map[string]scenario.Value) string {
	var sb strings.Builder
	for _, ps := range schema {
		if v, ok := params[ps.Name]; ok {
			sb.WriteString(ps.Name)
			sb.WriteByte('=')
			sb.WriteString(v.Text())
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// gridValues picks the coarse per-parameter grid: every enum and bool
// value, and {min, mid, max} for numeric ranges.
func gridValues(ps adversary.ParamSpec) []scenario.Value {
	switch ps.Kind {
	case adversary.KindEnum:
		out := make([]scenario.Value, len(ps.Enum))
		for i, e := range ps.Enum {
			out[i] = scenario.Value{Str: e, IsStr: true}
		}
		return out
	case adversary.KindBool:
		return []scenario.Value{{Num: 0}, {Num: 1}}
	case adversary.KindInt:
		lo, hi := ps.Min, ps.Max
		mid := math.Trunc((lo + hi) / 2)
		vals := []scenario.Value{{Num: lo}}
		if mid != lo && mid != hi {
			vals = append(vals, scenario.Value{Num: mid})
		}
		if hi != lo {
			vals = append(vals, scenario.Value{Num: hi})
		}
		return vals
	default: // KindFloat
		lo, hi := ps.Min, ps.Max
		vals := []scenario.Value{{Num: lo}}
		if hi != lo {
			vals = append(vals, scenario.Value{Num: (lo + hi) / 2}, scenario.Value{Num: hi})
		}
		return vals
	}
}

// gridAssignments is the cartesian product of the per-parameter grids,
// first schema parameter outermost (lexicographic in declaration order).
func gridAssignments(schema adversary.Schema) []map[string]scenario.Value {
	out := []map[string]scenario.Value{{}}
	for _, ps := range schema {
		vals := gridValues(ps)
		next := make([]map[string]scenario.Value, 0, len(out)*len(vals))
		for _, base := range out {
			for _, v := range vals {
				m := make(map[string]scenario.Value, len(base)+1)
				for k, bv := range base {
					m[k] = bv
				}
				m[ps.Name] = v
				next = append(next, m)
			}
		}
		out = next
	}
	return out
}

// randomAssignment draws one full assignment, one parameter at a time in
// schema declaration order (so the draw sequence — and therefore the
// candidate — is a pure function of the RNG state). Floats are quantized
// to 1/16 of their range: coarse enough to dedup well and to keep
// counterexample specs readable.
func randomAssignment(schema adversary.Schema, rng *xrand.PCG) map[string]scenario.Value {
	m := make(map[string]scenario.Value, len(schema))
	for _, ps := range schema {
		switch ps.Kind {
		case adversary.KindEnum:
			m[ps.Name] = scenario.Value{Str: ps.Enum[rng.Intn(len(ps.Enum))], IsStr: true}
		case adversary.KindBool:
			m[ps.Name] = scenario.Value{Num: float64(rng.Intn(2))}
		case adversary.KindInt:
			span := int(ps.Max-ps.Min) + 1
			m[ps.Name] = scenario.Value{Num: ps.Min + float64(rng.Intn(span))}
		default: // KindFloat
			step := (ps.Max - ps.Min) / 16
			m[ps.Name] = scenario.Value{Num: ps.Min + step*float64(rng.Intn(17))}
		}
	}
	return m
}
