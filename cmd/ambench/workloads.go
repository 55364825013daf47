package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/scenario"
)

// workload is one named benchmark input. A trial workload runs spec as one
// sweep point of trials trials per timed repetition; the suite workload
// (trials == 0) runs the paper's quick experiment suite once per
// repetition.
type workload struct {
	name   string
	why    string
	spec   scenario.Spec
	trials int
}

func (w workload) isSuite() bool { return w.trials == 0 }

// workloads stress different layers of the stack, so a change to one layer
// has a workload that exercises it and one that bypasses it. Δ = 1 in
// every spec. Repetitions are short, so a run has many to take the median
// of, but long enough that the per-op counts of one input set stay close
// to another's: dag-private's and dag-gossip's trials vary more (each
// dag-gossip input set has its own graph), so their repetitions are longer.
var workloads = []workload{
	{
		name: "chain-fork",
		why:  "Theorem 5.3 regime: the chain index and chainba do most of the work under sibling forks and adversarial tie-breaks; the DAG layers stay idle.",
		spec: scenario.Spec{Protocol: scenario.Chain, N: 32, T: 11, Lambda: 0.5, K: 41,
			TieBreak: scenario.TieAdversarial, Attack: scenario.AttackFork},
		trials: 350,
	},
	{
		name: "dag-private",
		why:  "E8 regime: dagba decisions (GHOST pivot, then OrderedValues over the whole DAG) dominate under a pivot-extending private chain; the chain layers stay idle.",
		spec: scenario.Spec{Protocol: scenario.Dag, N: 32, T: 10, Lambda: 1, K: 81, Confirm: 4,
			Pivot: scenario.PivotGhost, Attack: scenario.AttackPrivateChain},
		trials: 500,
	},
	{
		name: "dag-gossip",
		why:  "256 nodes on a small-world graph: harness flooding (access.Visibility) and per-node prefix views dominate, no adversary; the only workload whose set-up builds a topology.",
		spec: scenario.Spec{Protocol: scenario.Dag, N: 256, Lambda: 0.05, K: 41,
			Topology: scenario.TopoSmallWorld, LinkDelay: 0.1, DelayDist: "uniform"},
		trials: 100,
	},
	{
		// A windowed DAG retires almost nothing: it decides once its
		// ordering covers k+confirm blocks, so its history barely exceeds
		// the smallest legal window. The chain under flips runs to ~2.4k.
		name: "long-horizon",
		why:  "Windowed chain under flips: histories run to ~2.4k appends (k=401) and Retire plus index CompactTo reclaim about half of each behind a 480-message window, beside the reads.",
		spec: scenario.Spec{Protocol: scenario.Chain, N: 10, T: 3, Lambda: 1, K: 401,
			Attack: scenario.AttackFlip, Window: 480},
		trials: 250,
	},
	{
		name: "paper-quick",
		why:  "The users' headline job: every experiment at quick scale with its paper-prediction checks; the only workload covering bivalence, msgnet/abdsim and search.",
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputSets is the number of committed input sets per workload. The seed
// selects one, so every run is checked against a committed digest and no
// seed lands on a quick-scale suite whose statistical checks fail by
// chance (they pass for suite seeds 1..8).
const inputSets = 8

// inputSet maps a seed to its input set; seed 1 is set 0.
func inputSet(seed uint64) int { return int((seed%inputSets + inputSets - 1) % inputSets) }

// sweepMetrics are evaluated at every trial workload's sweep point; they
// go into the digest, and "appends" yields the simulated appends.
var sweepMetrics = []string{"ok", "validity", "agreement", "termination",
	"appends", "byz-appends", "decide-time", "mem-high-water"}

// size is how much work one repetition does: trials per repetition for a
// trial workload, the experiment list for the suite.
type size struct {
	trials int
	suite  []experiments.Experiment
}

// fullSize is the benchmark's repetition size; committed digests hold for
// it only.
func (w workload) fullSize() size {
	if w.isSuite() {
		return size{suite: experiments.All()}
	}
	return size{trials: w.trials}
}

// specFor is the sweep of one input set. Trial seeds start at
// 1 + set·w.trials, so the input sets are disjoint at full size.
func (w workload) specFor(set, trials int) scenario.Spec {
	s := w.spec
	s.Name = w.name
	s.Seed = 1 + uint64(set)*uint64(w.trials)
	s.Trials = trials
	s.Metrics = sweepMetrics
	return s
}

// suiteOptions are the experiment options of one input set.
func suiteOptions(set, workers int) experiments.Options {
	return experiments.Options{Seed: 1 + uint64(set), Quick: true, Workers: workers}
}

// repOutput is what one repetition produced.
type repOutput struct {
	ops, failed int
	appends     float64 // simulated appends (trial workloads)
	digest      string
}

// job is a workload bound to one input set, size and worker count.
type job struct {
	setup func() error              // bind and warm up
	rep   func() (repOutput, error) // one timed repetition
}

// warmSeed is the seed of the set-up's warm-up trial (and warm-up suite
// experiment). It belongs to no input set, so the set-up does the same
// work whatever the seed; one trial's cost varies too much from seed to
// seed to let it follow the input set.
const warmSeed = 0

func (w workload) job(set int, sz size, workers int) job {
	if w.isSuite() {
		opts := suiteOptions(set, workers)
		return job{
			setup: func() error {
				warm, ok := experiments.ByID("E2")
				if !ok {
					return fmt.Errorf("warm-up experiment E2 is not registered")
				}
				experiments.Run(warm, experiments.Options{Seed: warmSeed, Quick: true, Workers: 1})
				return nil
			},
			rep: func() (repOutput, error) { return runSuite(sz.suite, opts) },
		}
	}
	spec := w.specFor(set, sz.trials)
	return job{
		setup: func() error {
			b, err := scenario.Bind(spec)
			if err != nil {
				return err
			}
			_, err = b.Run(warmSeed)
			return err
		},
		rep: func() (repOutput, error) { return runTrials(spec, workers) },
	}
}

// runSweep is scenario.RunSpec with a trial panic reported as an error.
func runSweep(spec scenario.Spec, workers int) (res *scenario.SweepResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep panicked: %v", r)
		}
	}()
	return scenario.RunSpec(spec, scenario.Options{Workers: workers})
}

// runTrials runs one sweep; a failed sweep fails every trial in it.
func runTrials(spec scenario.Spec, workers int) (repOutput, error) {
	out := repOutput{ops: spec.Trials}
	res, err := runSweep(spec, workers)
	if err != nil {
		out.failed = out.ops
		return out, err
	}
	data, err := json.Marshal(res)
	if err != nil {
		out.failed = out.ops
		return out, fmt.Errorf("encoding the sweep result: %w", err)
	}
	out.digest = digest(data)
	for _, m := range res.Points[0].Metrics {
		if m.Name == "appends" {
			out.appends = m.Value * float64(spec.Trials)
		}
	}
	return out, nil
}

// runSuite runs the experiments concurrently, as amexp does; an experiment
// with a failed prediction check is a failed op.
func runSuite(es []experiments.Experiment, opts experiments.Options) (repOutput, error) {
	var results []*experiments.Result
	experiments.RunStream(es, opts, func(r *experiments.Result) { results = append(results, r) })
	out := repOutput{ops: len(es)}
	for _, r := range results {
		if experiments.FailedChecks(r.EvalChecks()) > 0 {
			out.failed++
		}
	}
	d, err := suiteDigest(results)
	out.digest = d
	return out, err
}

// suiteDigest hashes the report.WriteJSON output with the fields that
// differ between identical runs cleared: the elapsed wall clock and the
// worker count.
func suiteDigest(results []*experiments.Result) (string, error) {
	clean := make([]*experiments.Result, len(results))
	for i, r := range results {
		c := *r
		c.Elapsed = 0
		c.Options.Workers = 0
		clean[i] = &c
	}
	h := sha256.New()
	if err := report.WriteJSON(h, clean); err != nil {
		return "", fmt.Errorf("encoding the suite results: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// digestFile is where -update writes, relative to the repository root.
const digestFile = "cmd/ambench/testdata/digests.json"

//go:embed testdata/digests.json
var committedDigests []byte

// digestTable holds one SHA-256 per input set of each workload, at full
// size.
type digestTable map[string][]string

func parseDigests(data []byte) (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parsing the digest table: %w", err)
	}
	return t, nil
}

// check compares a full-size repetition's digest with the committed one.
func (t digestTable) check(workload string, set int, got string) error {
	want := t[workload]
	if set >= len(want) || want[set] == "" {
		return fmt.Errorf("%s input set %d has no committed digest; re-record with -update", workload, set)
	}
	if got != want[set] {
		return fmt.Errorf("%s input set %d: digest %s, committed %s", workload, set, got, want[set])
	}
	return nil
}

// recordDigests runs one full-size repetition of every input set of w and
// stores the digests in the table file at path, keeping other workloads'
// entries.
func recordDigests(w workload, workers int, path string) error {
	t := digestTable{}
	if data, err := os.ReadFile(path); err == nil {
		if t, err = parseDigests(data); err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	sets := make([]string, inputSets)
	for set := range sets {
		out, err := w.job(set, w.fullSize(), workers).rep()
		if err != nil {
			return fmt.Errorf("%s input set %d: %w", w.name, set, err)
		}
		if out.failed > 0 {
			return fmt.Errorf("%s input set %d: %d of %d ops failed", w.name, set, out.failed, out.ops)
		}
		sets[set] = out.digest
		fmt.Printf("%s input set %d: %s\n", w.name, set, out.digest)
	}
	t[w.name] = sets
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
