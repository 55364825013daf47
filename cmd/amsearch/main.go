// Command amsearch searches the attack-parameter space of a
// parameterized adversary template for the worst case: instead of
// trusting a hand-coded preset (fork, equivocate, private-chain, ...) to
// be the strongest strategy, it optimizes the template's parameters
// against an objective — the disagreement rate, or the mean decision
// latency — under a fixed trial budget. Same seed, same trajectory: the
// candidate pool, the rung decisions and the winner are reproducible
// from the printed seed, regardless of -workers or -distribute.
//
// The scenario flags are scenario.NewFlags', the same set amrun takes
// (minus -trials, which the search sets per rung), over amsearch's own
// default Spec; with -spec the file is the base and explicitly set flags
// override its fields. The closing "reproduce:" line renders the searched
// spec back through the same flags, so pasting it reruns the search
// exactly. The fleet flags come from internal/distrib, shared with amrun;
// without -distribute, -workers-addr or -cache every candidate runs
// in-process through scenario.RunSpec at -workers.
//
// Examples:
//
//	amsearch -protocol chain -n 32 -t 11 -lambda 0.5 -k 41 -tiebreak adversarial -attack fork -budget 4800 -seed 1
//	amsearch -protocol dag -n 16 -t 5 -lambda 0.5 -k 41 -attack private-chain -objective latency
//	amsearch -protocol chain -n 9 -t 4 -lambda 0.5 -k 41 -tiebreak adversarial -attack fork -promote examples/scenarios
//	amsearch -replay examples/scenarios/searched-chain-decided-prefix.json
//	amsearch -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/distrib"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/search"
)

// defaults is the spec a bare amsearch invocation searches around.
var defaults = scenario.Spec{
	Protocol: scenario.Chain, N: 10, T: 3, Lambda: 0.5, Delta: 1, K: 21,
	TieBreak: scenario.TieRandom, Pivot: scenario.PivotGhost, Attack: scenario.AttackFork,
	Inputs: "same", Seed: 1,
}

// command is amsearch's command line.
type command struct {
	fs    *flag.FlagSet
	spec  *scenario.Flags
	fleet *distrib.Fleet
	prof  *profile.Flags

	specPath, objective, rungs  string
	budget, eta, workers        int
	format, promote, replayPath string
	list                        bool
}

func newCommand() *command {
	c := &command{fs: flag.NewFlagSet("amsearch", flag.ExitOnError)}
	// The search sets each candidate's trial count itself, rung by rung.
	c.spec = scenario.NewFlags(c.fs, defaults, "trials")
	c.fleet = distrib.FleetFlags(c.fs)
	c.fs.StringVar(&c.specPath, "spec", "", "search around a JSON scenario spec (explicitly-set flags override its fields)")
	c.fs.StringVar(&c.objective, "objective", string(search.Disagreement),
		"maximized objective: "+strings.Join(search.Objectives(), " | "))
	c.fs.IntVar(&c.budget, "budget", search.DefaultBudget, "total trial budget across all rungs (sizes the candidate pool)")
	c.fs.StringVar(&c.rungs, "rungs", "", "successive-halving trial budgets, ascending (default 16,64,256)")
	c.fs.IntVar(&c.eta, "eta", 0, "halving rate: each rung keeps ceil(active/eta) survivors (0 = 4)")
	c.fs.IntVar(&c.workers, "workers", 0, "in-process trial parallelism (0 = GOMAXPROCS)")
	c.fs.StringVar(&c.format, "format", "text", "output format: text | json")
	c.fs.StringVar(&c.promote, "promote", "", "minimize the winner to a single-seed counterexample spec and write it here (a directory or a .json path)")
	c.fs.StringVar(&c.replayPath, "replay", "", "replay a committed counterexample spec; exit 1 unless some trial disagrees or violates an invariant")
	c.fs.BoolVar(&c.list, "list", false, "enumerate searchable attacks (with parameter schemas) and objectives, then exit")
	c.prof = profile.Register(c.fs)
	return c
}

// config builds the search the parsed flags describe. base is the spec
// the flags were applied to: the -spec file, or the defaults. The spec's
// seed is also the search seed, so one seed reproduces everything:
// candidate sampling and the trials.
func (c *command) config() (cfg search.Config, base scenario.Spec, err error) {
	base = defaults
	if c.specPath != "" {
		if base, err = scenario.LoadSpec(c.specPath); err != nil {
			return cfg, base, err
		}
		base.Sweep = nil
		base.Trials = 0
	}
	spec, err := c.spec.Apply(base)
	if err != nil {
		return cfg, base, err
	}
	rungs, err := parseRungs(c.rungs)
	if err != nil {
		return cfg, base, err
	}
	return search.Config{
		Spec: spec, Objective: search.Objective(c.objective),
		Budget: c.budget, Seed: spec.Seed, Rungs: rungs, Eta: c.eta,
	}, base, nil
}

// reproduce renders the command line that reruns the search exactly: the
// spec flags that differ from base, then every search option with the
// value the search resolved it to.
func (c *command) reproduce(cfg search.Config, base scenario.Spec, res *search.Result) string {
	args := []string{"amsearch"}
	if c.specPath != "" {
		args = append(args, "-spec", c.specPath)
	}
	base.Seed = cfg.Spec.Seed // printed with the search options
	args = append(args, c.spec.Args(cfg.Spec, base)...)
	rungs := cfg.Rungs
	if len(rungs) == 0 {
		rungs = search.DefaultRungs()
	}
	rs := make([]string, len(rungs))
	for i, r := range rungs {
		rs[i] = strconv.Itoa(r)
	}
	eta := cfg.Eta
	if eta <= 0 {
		eta = search.DefaultEta
	}
	args = append(args, "-objective", string(res.Objective), "-budget", strconv.Itoa(res.Budget),
		"-rungs", strings.Join(rs, ","), "-eta", strconv.Itoa(eta), "-seed", strconv.FormatUint(res.Seed, 10))
	for i, a := range args {
		args[i] = shellQuote(a)
	}
	return strings.Join(args, " ")
}

// shellQuote returns s as one POSIX shell word: unchanged when it is
// non-empty and holds only characters the shell takes literally, else in
// single quotes, so an empty value or a path with spaces survives a paste.
func shellQuote(s string) string {
	if s != "" && strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.,/:=+@%") == "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
}

func main() {
	c := newCommand()
	c.fs.Parse(os.Args[1:])

	if served, err := c.fleet.ServeIfWorker(); served {
		if err != nil {
			fatal(err)
		}
		return
	}
	if c.list {
		emit(listing())
		return
	}
	stop, err := c.prof.Start()
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stop(); err != nil {
			fatal(err)
		}
	}()
	if c.replayPath != "" {
		replay(c.replayPath)
		return
	}

	cfg, base, err := c.config()
	if err != nil {
		fatal(err)
	}
	dcfg, release, err := c.fleet.Connect()
	if err != nil {
		fatal(err)
	}
	defer release()
	dcfg.InlineWorkers = c.workers
	cfg.Distrib = dcfg

	start := time.Now()
	res, err := search.Run(cfg)
	if err != nil {
		fatal(err)
	}

	switch c.format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
	case "text":
		emit(summary(res, cfg.Spec, time.Since(start), c.reproduce(cfg, base, res)))
	default:
		fatal(fmt.Errorf("unknown format %q (want text | json)", c.format))
	}

	if c.promote != "" {
		ce, err := search.Counterexample(cfg.Spec, res.Best.Candidate, res.Objective, res.Best.Trials)
		if err != nil {
			fatal(fmt.Errorf("promote: %w", err))
		}
		path, err := search.WriteCounterexample(ce, c.promote)
		if err != nil {
			fatal(fmt.Errorf("promote: %w", err))
		}
		emit(fmt.Sprintf("promoted: %s (seed %d, %s)\n", path, ce.Seed, ce.Name))
	}
}

// replay runs a committed counterexample and gates on reproduction: CI
// executes this against every promoted spec, so a counterexample that
// silently stops reproducing fails the build.
func replay(path string) {
	spec, err := scenario.LoadSpec(path)
	if err != nil {
		fatal(err)
	}
	hits, trials, why, err := search.Replay(spec)
	if err != nil {
		fatal(err)
	}
	if hits == 0 {
		fmt.Fprintf(os.Stderr, "amsearch: %s: no disagreement or invariant violation in %d trial(s) — the counterexample no longer reproduces\n",
			path, trials)
		os.Exit(1)
	}
	emit(fmt.Sprintf("%s: %d/%d trial(s) reproduce (%s)\n", path, hits, trials, strings.Join(why, ", ")))
}

// summary renders the search trajectory and the winner, ending with a
// ready-to-paste reproduction line.
func summary(res *search.Result, spec scenario.Spec, elapsed time.Duration, reproduce string) string {
	var w strings.Builder
	fmt.Fprintf(&w, "== amsearch: %s n=%d t=%d λ=%g k=%d attack=%s ==\n",
		spec.Protocol, spec.N, spec.T, spec.Lambda, spec.K, attackName(spec))
	fmt.Fprintf(&w, "objective=%s metric=%s seed=%d budget=%d candidates=%d trials-used=%d elapsed=%v\n",
		res.Objective, res.MetricName, res.Seed, res.Budget, res.Candidates,
		res.TrialsUsed, elapsed.Round(time.Millisecond))
	schema := attackSchema(spec)
	for i, r := range res.Rungs {
		fmt.Fprintf(&w, "rung %d: trials=%-4d evaluated=%-4d kept=%-4d best score=%.4f  %s\n",
			i+1, r.Trials, r.Evaluated, r.Kept, r.Best.Score, r.Best.Text(schema))
	}
	b := res.Best
	fmt.Fprintf(&w, "best: score=%.4f %s=%.4f violations/trial=%.3g  (origin %s, index %d, %d trials)\n",
		b.Score, res.MetricName, b.Metric, b.Violations, b.Origin, b.Index, b.Trials)
	fmt.Fprintf(&w, "  %s\n", b.Text(schema))
	if st := res.Stats; st.Dispatched > 0 || st.FromCache > 0 {
		fmt.Fprintf(&w, "fleet: leases=%d dispatched=%d cache-hits=%d inline=%d retries=%d lost=%d\n",
			st.Leases, st.Dispatched, st.FromCache, st.Inline, st.Retries, st.LostWorker)
	}
	fmt.Fprintf(&w, "reproduce: %s\n", reproduce)
	return w.String()
}

// listing enumerates the search space: every parameterized attack with
// its schema, and the objectives.
func listing() string {
	var w strings.Builder
	w.WriteString("searchable attacks:\n")
	for _, name := range scenario.ParameterizedAttacks() {
		fmt.Fprintf(&w, "  %-17s %s\n", name, scenario.Attacks.Doc(name))
		for _, line := range scenario.AttackParamLines(name) {
			fmt.Fprintf(&w, "      %s\n", line)
		}
	}
	w.WriteString("\nobjectives:\n")
	fmt.Fprintf(&w, "  %-17s maximize 1 - agreement rate (trials where correct nodes split)\n", search.Disagreement)
	fmt.Fprintf(&w, "  %-17s maximize the mean decision time in Δ\n", search.Latency)
	return w.String()
}

// parseRungs parses "16,64,256" into the halving schedule.
func parseRungs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad -rungs %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func attackName(s scenario.Spec) string {
	if s.Attack == "" {
		return string(scenario.AttackSilent)
	}
	return string(s.Attack)
}

func attackSchema(s scenario.Spec) adversary.Schema {
	def, ok := scenario.Attacks.Lookup(attackName(s))
	if !ok {
		return nil
	}
	return def.Schema
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amsearch:", err)
	os.Exit(1)
}

// emit writes s to stdout; a failed write fails the run.
func emit(s string) {
	if _, err := os.Stdout.WriteString(s); err != nil {
		fatal(err)
	}
}
