package search

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/distrib"
	"repro/internal/scenario"
)

// chainBase is a small near-critical chain scenario: adversarial
// tie-breaking at t = n/3 sits right at the Theorem 5.3 boundary, where
// the fork adversary produces a nonzero disagreement rate — so the
// objective has an actual gradient to climb.
func chainBase() scenario.Spec {
	return scenario.Spec{
		Protocol: scenario.Chain, N: 9, T: 3, Lambda: 0.5, K: 21,
		TieBreak: scenario.TieAdversarial, Attack: scenario.AttackFork,
		Seed: 1,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	schema := adversary.ChainSchema()
	warm := presetAssignments(chainBase(), schema)
	if len(warm) != 2 {
		t.Fatalf("%d warm starts for the chain template, want 2 (tiebreak, equivocate)", len(warm))
	}
	a := Generate(schema, warm, 24, 7)
	b := Generate(schema, warm, 24, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different candidate pools")
	}
	if len(a) != 24 {
		t.Fatalf("pool size %d, want 24", len(a))
	}
	if a[0].Origin != "preset" || len(a[0].Params) != 0 {
		t.Fatalf("candidate 0 = %+v, want the empty preset", a[0])
	}
	seen := map[string]bool{}
	for i, c := range a {
		if c.Index != i {
			t.Fatalf("candidate %d carries index %d", i, c.Index)
		}
		if c.Origin != "preset" && len(c.Params) != len(schema) {
			t.Fatalf("candidate %d (%s) sets %d of %d parameters", i, c.Origin, len(c.Params), len(schema))
		}
		key := canon(schema, c.Params)
		if seen[key] {
			t.Fatalf("duplicate candidate %d: %s", i, key)
		}
		seen[key] = true
	}

	c := Generate(schema, warm, 24, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical pools")
	}
	// The deterministic portion (preset + grid) is seed-independent.
	for i := 0; i < len(a); i++ {
		if a[i].Origin == "random" {
			break
		}
		if !reflect.DeepEqual(a[i], c[i]) {
			t.Fatalf("non-random candidate %d differs across seeds: %+v vs %+v", i, a[i], c[i])
		}
	}
}

func TestGeneratedCandidatesValid(t *testing.T) {
	base := chainBase()
	for _, c := range Generate(adversary.ChainSchema(), nil, 40, 3) {
		sp := base
		sp.AttackParams = c.Params
		if _, err := scenario.Bind(sp); err != nil {
			t.Fatalf("candidate %d (%s) does not bind: %v", c.Index, c.Origin, err)
		}
	}
}

// searchConfig keeps the test search tiny: two rungs, a handful of
// candidates, evaluated in-process.
func searchConfig(workers int) Config {
	return Config{
		Spec: chainBase(), Objective: Disagreement,
		Budget: 48, Seed: 11, Rungs: []int{4, 8}, Eta: 4,
		Distrib: distrib.Config{InlineWorkers: workers},
	}
}

func TestSearchDeterministicAcrossWorkers(t *testing.T) {
	serial, err := Run(searchConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(searchConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("search trajectory depends on worker count:\n 1: %+v\n 8: %+v", serial, parallel)
	}
	if serial.Best.Trials != 8 {
		t.Fatalf("best measured at %d trials, want the final rung 8", serial.Best.Trials)
	}
	if len(serial.Rungs) != 2 {
		t.Fatalf("%d rungs recorded, want 2", len(serial.Rungs))
	}
}

func TestSearchBestAtLeastPreset(t *testing.T) {
	res, err := Run(searchConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	// Measure the preset at the same final-rung budget the winner was
	// scored at: the searched worst case must not lose to the hand-coded
	// strategy it generalizes.
	sp := chainBase()
	sp.Trials = res.Best.Trials
	sp.Metrics = []string{res.MetricName}
	sw := scenario.MustRunSpec(sp, scenario.Options{})
	preset := res.Objective.Score(sw.Points[0].Metrics[0].Value)
	if res.Best.Score < preset {
		t.Fatalf("searched best %.4f scores below the preset %.4f", res.Best.Score, preset)
	}
}

func TestSearchRejectsUnparameterizedAttack(t *testing.T) {
	cfg := searchConfig(0)
	cfg.Spec.Attack = scenario.AttackSilent
	if _, err := Run(cfg); err == nil {
		t.Fatal("search over the silent attack should fail (no schema)")
	}
	cfg = searchConfig(0)
	cfg.Spec.Sweep = []scenario.Axis{{Name: "n", Values: []scenario.Value{{Num: 6}}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("search over a sweeping spec should fail")
	}
}

func TestCounterexampleRoundTrip(t *testing.T) {
	// At t=4 the fork adversary disagrees in a few percent of trials, so a
	// short scan finds a witness.
	base := scenario.Spec{
		Protocol: scenario.Chain, N: 9, T: 4, Lambda: 0.5, K: 41,
		TieBreak: scenario.TieAdversarial, Attack: scenario.AttackFork,
		Seed: 1,
	}
	ce, err := Counterexample(base, Candidate{Origin: "preset"}, Disagreement, 128)
	if err != nil {
		t.Fatal(err)
	}
	if ce.Trials != 1 {
		t.Fatalf("counterexample trials = %d, want 1 (minimized)", ce.Trials)
	}
	schema := adversary.ChainSchema()
	if len(ce.AttackParams) != len(schema) {
		t.Fatalf("counterexample pins %d of %d parameters", len(ce.AttackParams), len(schema))
	}

	// The committed artifact must survive the JSON round trip and still
	// reproduce: Replay is what CI runs against the file.
	data, err := json.Marshal(ce)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := scenario.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	hits, trials, why, err := Replay(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if trials != 1 || hits != 1 {
		t.Fatalf("replay hit %d/%d trials (%v), want the pinned seed to reproduce", hits, trials, why)
	}
}

func TestReplayCleanSpecMisses(t *testing.T) {
	sp := chainBase()
	sp.Attack = scenario.AttackSilent
	sp.TieBreak = ""
	sp.Trials = 4
	hits, trials, _, err := Replay(sp)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 || trials != 4 {
		t.Fatalf("silent run hit %d/%d, want 0/4", hits, trials)
	}
}
