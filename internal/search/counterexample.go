package search

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/agreement"
	"repro/internal/scenario"
)

// Witness is one concrete bad trial: a seed whose run disagrees or
// violates an invariant under a given parameterization.
type Witness struct {
	Seed uint64
	// Why names what went wrong: "disagreement" or an invariant name
	// (agreement.InvConflictingDecisions, ...).
	Why string
}

// FindWitness scans the spec's trials in seed order and returns the
// first one that disagrees or violates an invariant — the minimization
// step between "the searched point scores badly over N trials" and "here
// is ONE run you can replay". The spec's own Trials field bounds the
// scan.
func FindWitness(spec scenario.Spec) (Witness, error) {
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		return Witness{}, err
	}
	iv, ivErr := b.Invariants() // sync specs have no invariant hooks; fall back to the verdict
	for i := 0; i < trials; i++ {
		seed := spec.Seed + uint64(i)
		r, err := b.Run(seed)
		if err != nil {
			return Witness{}, err
		}
		if ivErr == nil {
			if vs := r.CheckInvariants(iv); len(vs) > 0 {
				return Witness{Seed: seed, Why: vs[0].Invariant}, nil
			}
		}
		if !r.Verdict.Agreement {
			return Witness{Seed: seed, Why: "disagreement"}, nil
		}
	}
	return Witness{}, fmt.Errorf("search: no disagreeing or violating trial among seeds %d..%d",
		spec.Seed, spec.Seed+uint64(trials)-1)
}

// Counterexample minimizes a searched candidate into a committed
// regression: a fully-specified single-trial Spec pinned to the first
// witness seed, with the complete parameter assignment written out
// explicitly (so the file survives preset drift). The scan covers
// scanTrials seeds from base.Seed.
func Counterexample(base scenario.Spec, c Candidate, obj Objective, scanTrials int) (scenario.Spec, error) {
	sp := base
	sp.Sweep = nil
	sp.Metrics = nil
	sp.Trials = scanTrials
	if len(c.Params) > 0 {
		sp.AttackParams = c.Params
	}
	w, err := FindWitness(sp)
	if err != nil {
		return scenario.Spec{}, err
	}
	explicit, err := scenario.ExplicitAttackParams(sp)
	if err != nil {
		return scenario.Spec{}, err
	}
	sp.AttackParams = explicit
	sp.Seed = w.Seed
	sp.Trials = 1
	sp.Name = fmt.Sprintf("searched-%s-%s", sp.Protocol, w.Why)
	sp.Doc = fmt.Sprintf("Searched counterexample (%s objective): seed %d exhibits %s. "+
		"Found by amsearch -seed %d; replay with amsearch -replay <this file>.",
		obj, w.Seed, w.Why, base.Seed)
	return sp, nil
}

// WriteCounterexample serializes the spec as an examples/scenarios-style
// JSON file. path may be an existing directory (the file name is derived
// from the spec name) or a target .json path; the written path is
// returned.
func WriteCounterexample(sp scenario.Spec, path string) (string, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		name := strings.ReplaceAll(sp.Name, " ", "_") + ".json"
		path = filepath.Join(path, name)
	}
	data, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// Replay runs every trial of a (typically committed) spec and reports
// how many disagree or violate an invariant. CI gates on hits > 0: a
// counterexample that stops reproducing is a regression in the
// regression.
func Replay(spec scenario.Spec) (hits, trials int, why []string, err error) {
	trials = spec.Trials
	if trials <= 0 {
		trials = 1
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		return 0, 0, nil, err
	}
	iv, ivErr := b.Invariants()
	for i := 0; i < trials; i++ {
		r, err := b.Run(spec.Seed + uint64(i))
		if err != nil {
			return 0, 0, nil, err
		}
		var vs agreement.Violations
		if ivErr == nil {
			vs = r.CheckInvariants(iv)
		}
		switch {
		case len(vs) > 0:
			hits++
			why = append(why, vs[0].Invariant)
		case !r.Verdict.Agreement:
			hits++
			why = append(why, "disagreement")
		}
	}
	return hits, trials, why, nil
}
