// Command amrun executes Byzantine-agreement protocol runs in the append
// memory: a single run, a batch of trials, or a declarative scenario
// sweep. Every protocol, tie-break, pivot, attack, access-model and
// metric name comes from the internal/scenario registries — `amrun -list`
// enumerates them.
//
// The scenario flags are not declared here: scenario.NewFlags derives one
// per scenario.Spec parameter (-stall-at sets "stall_at"), the same set
// amsearch and amdot accept, and amrun only supplies its default Spec.
// With -spec the file is the base and explicitly set flags override its
// fields. The fleet flags (-distribute, -workers-addr, -cache, ...) come
// from internal/distrib, shared with amsearch.
//
// Examples:
//
//	amrun -protocol dag -n 10 -t 4 -lambda 1 -k 41 -attack private-chain
//	amrun -protocol chain -tiebreak random -n 10 -t 4 -lambda 1 -k 41 -attack tiebreak -trials 50
//	amrun -protocol sync -n 8 -t 3 -rounds 2 -inputs split:3 -attack delayed-chain
//	amrun -protocol dag -n 12 -t 4 -lambda 0.5 -k 41 -trials 20 -sweep attack=silent,private-chain,private-fork -metrics ok,byz-prefix-share
//	amrun -spec examples/scenarios/hashpower-ghost.json
//	amrun -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/appendmem"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/topology"
	"repro/internal/trace"
)

// sweepFlags collects repeatable -sweep axis=v1,v2,... flags.
type sweepFlags []scenario.Axis

func (s *sweepFlags) String() string { return fmt.Sprintf("%d axes", len(*s)) }

func (s *sweepFlags) Set(v string) error {
	ax, err := scenario.ParseAxis(v)
	if err != nil {
		return err
	}
	*s = append(*s, ax)
	return nil
}

// defaults is the spec a bare amrun invocation runs.
var defaults = scenario.Spec{
	Protocol: scenario.Dag, N: 10, Lambda: 0.5, Delta: 1, K: 21,
	TieBreak: scenario.TieRandom, Pivot: scenario.PivotGhost, Attack: scenario.AttackSilent,
	Inputs: "same", Seed: 1, Trials: 1,
}

func main() {
	specFlags := scenario.NewFlags(flag.CommandLine, defaults)
	fleet := distrib.FleetFlags(flag.CommandLine)
	var sweeps sweepFlags
	var (
		verbose = flag.Bool("v", false, "print per-node decisions")
		traceN  = flag.Int("trace", 0, "print the last N trace events of the run")
		timing  = flag.Bool("timing", false, "report sweep wall clock and checkpoint prefix reuse on stderr")

		list     = flag.Bool("list", false, "enumerate the registries (protocols, tie-breaks, pivots, attacks, access models, metrics, sweep axes) and exit")
		specPath = flag.String("spec", "", "run a JSON scenario spec (explicitly-set flags override its fields)")
		metricsF = flag.String("metrics", "", "comma-separated metric extractors for sweep output (see -list metrics)")
		format   = flag.String("format", "text", "sweep output format: text | md | json | csv")
		out      = flag.String("o", "", "write sweep output to file instead of stdout")
		workers  = flag.Int("workers", 0, "trial parallelism (0 = GOMAXPROCS)")
	)
	flag.Var(&sweeps, "sweep", "sweep axis as axis=v1,v2,... (repeatable; see -list for axes)")
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	if served, err := fleet.ServeIfWorker(); served {
		if err != nil {
			fatal(err)
		}
		return
	}

	// -list is a query, not a run.
	if *list {
		emit(listing())
		return
	}

	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProfile := func() {
		if err := stop(); err != nil {
			fatal(err)
		}
	}
	defer stopProfile()

	base := defaults
	if *specPath != "" {
		var err error
		if base, err = scenario.LoadSpec(*specPath); err != nil {
			fatal(err)
		}
	}
	spec, err := specFlags.Apply(base)
	if err != nil {
		fatal(err)
	}
	spec.Sweep = append(spec.Sweep, sweeps...)
	if *metricsF != "" {
		spec.Metrics = splitList(*metricsF)
	}

	// A spec file, a sweep, an explicit metric set or a distributed flag
	// selects table mode; bare flag runs keep the classic single-run /
	// trials output.
	if *specPath != "" || len(spec.Sweep) > 0 || len(spec.Metrics) > 0 || fleet.Enabled() {
		if fleet.Enabled() {
			runDistributed(spec, fleet, *format, *out, *timing)
			return
		}
		runSweep(spec, *workers, *format, *out, *timing)
		return
	}

	if spec.Trials > 1 {
		res, err := scenario.RunSpec(spec, scenario.Options{Workers: *workers})
		if err != nil {
			fatal(err)
		}
		emit(fmt.Sprintf("%s n=%d t=%d λ=%g k=%d attack=%s: %s\n",
			spec.Protocol, spec.N, spec.T, spec.Lambda, spec.K, attackName(spec), trialSummary(res.Points[0])))
		return
	}

	if !runOne(spec, *verbose, *traceN) {
		stopProfile()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amrun:", err)
	os.Exit(1)
}

// emit writes s to stdout; a failed write fails the run.
func emit(s string) {
	if _, err := os.Stdout.WriteString(s); err != nil {
		fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok != "" {
			out = append(out, tok)
		}
	}
	return out
}

func attackName(s scenario.Spec) scenario.Attack {
	if s.Attack == "" {
		return scenario.AttackSilent
	}
	return s.Attack
}

// trialSummary renders the default metrics of a single-point run as
// "ok X/N (agreement A, validity V, termination T)".
func trialSummary(pt scenario.PointResult) string {
	count := map[string]int{}
	for _, mv := range pt.Metrics {
		count[mv.Name] = mv.Count
	}
	return fmt.Sprintf("ok %d/%d (agreement %d, validity %d, termination %d)",
		count["ok"], pt.Trials, count["agreement"], count["validity"], count["termination"])
}

// runSweep executes the spec through the scenario layer and renders the
// point table in the requested format.
func runSweep(spec scenario.Spec, workers int, format, out string, timing bool) {
	start := time.Now()
	res, err := scenario.RunSpec(spec, scenario.Options{Workers: workers})
	if err != nil {
		fatal(err)
	}
	if timing {
		fmt.Fprintf(os.Stderr, "amrun: sweep %v", time.Since(start).Round(time.Millisecond))
		if res.Reuse != nil {
			fmt.Fprintf(os.Stderr, "  checkpoints captured=%d resumed=%d", res.Reuse.Captured, res.Reuse.Resumed)
		}
		fmt.Fprintln(os.Stderr)
	}
	renderSweep(res, format, out)
}

// runDistributed shards the sweep's trials across worker processes via
// internal/distrib and renders the merged result — byte-identical to the
// same sweep run in-process at the same seed.
func runDistributed(spec scenario.Spec, fleet *distrib.Fleet, format, out string, timing bool) {
	cfg, release, err := fleet.Connect()
	if err != nil {
		fatal(err)
	}
	defer release()

	start := time.Now()
	res, stats, err := distrib.Run(spec, cfg)
	if err != nil {
		fatal(err)
	}
	if timing {
		fmt.Fprintf(os.Stderr,
			"amrun: sweep %v  workers=%d leases=%d dispatched=%d cache-hits=%d inline=%d retries=%d lost=%d\n",
			time.Since(start).Round(time.Millisecond), len(cfg.Workers),
			stats.Leases, stats.Dispatched, stats.FromCache, stats.Inline, stats.Retries, stats.LostWorker)
	}
	renderSweep(res, format, out)
}

// renderSweep writes the point table in the requested format — shared by
// the in-process and distributed paths so their bytes can only agree.
func renderSweep(res *scenario.SweepResult, format, out string) {
	w, closeOut := os.Stdout, func() error { return nil }
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		w, closeOut = f, f.Close
	}
	var err error
	switch format {
	case "text":
		_, err = fmt.Fprint(w, report.TableText(experiments.SweepTable(res)))
	case "md":
		_, err = fmt.Fprint(w, report.TableMarkdown(experiments.SweepTable(res)))
	case "json":
		err = report.WriteJSON(w, []*experiments.Result{experiments.SweepResult(res)})
	case "csv":
		err = report.WriteCSV(w, []*experiments.Result{experiments.SweepResult(res)})
	default:
		err = fmt.Errorf("unknown format %q (want text | md | json | csv)", format)
	}
	if err = errors.Join(err, closeOut()); err != nil {
		fatal(err)
	}
}

// runOne preserves amrun's classic single-run report and reports whether
// the run met every consensus property.
func runOne(spec scenario.Spec, verbose bool, traceN int) bool {
	var rec *trace.Recorder
	if traceN > 0 {
		rec = trace.New()
	}
	b, err := scenario.Bind(spec)
	if err != nil {
		fatal(err)
	}
	r, err := b.RunTraced(spec.Seed, rec)
	if err != nil {
		fatal(err)
	}
	var w strings.Builder
	fmt.Fprintf(&w, "protocol    %s (attack %s)\n", spec.Protocol, attackName(spec))
	fmt.Fprintf(&w, "nodes       n=%d t=%d crashes=%d\n", spec.N, spec.T, spec.Crashes)
	fmt.Fprintf(&w, "verdict     agreement=%v validity=%v termination=%v\n",
		r.Verdict.Agreement, r.Verdict.Validity, r.Verdict.Termination)
	fmt.Fprintf(&w, "appends     total=%d byzantine=%d\n", r.TotalAppends, r.ByzAppends)
	fmt.Fprintf(&w, "duration    %.3f Δ\n", float64(r.Duration))
	if verbose {
		for i, d := range r.Decision {
			role := r.Roster.Role(appendmem.NodeID(i))
			status := "undecided"
			if r.Decided[i] {
				status = fmt.Sprintf("decided %+d", d)
			}
			fmt.Fprintf(&w, "  node %2d  %-9s input %+d  %s\n", i, role, r.Inputs[i], status)
		}
	}
	if rec != nil {
		fmt.Fprintf(&w, "trace (%d events total):\n%s", rec.Len(), rec.Render(traceN))
	}
	emit(w.String())
	return r.Verdict.OK()
}

// listing enumerates the registries, one line per name with its doc.
func listing() string {
	var w strings.Builder
	section := func(title string, names []string, doc func(string) string) {
		fmt.Fprintf(&w, "%s:\n", title)
		for _, name := range names {
			fmt.Fprintf(&w, "  %-17s %s\n", name, doc(name))
		}
		w.WriteString("\n")
	}
	section("protocols", scenario.Protocols.Names(), scenario.Protocols.Doc)
	section("tie-breaks (chain)", scenario.TieBreaks.Names(), scenario.TieBreaks.Doc)
	section("pivots (dag)", scenario.Pivots.Names(), scenario.Pivots.Doc)
	w.WriteString("attacks:\n")
	for _, name := range scenario.Attacks.Names() {
		fmt.Fprintf(&w, "  %-17s [%s] %s\n", name, attackScope(name), scenario.Attacks.Doc(name))
		for _, line := range scenario.AttackParamLines(name) {
			fmt.Fprintf(&w, "      %s\n", line)
		}
	}
	w.WriteString("\n")
	section("access models", scenario.AccessModels.Names(), scenario.AccessModels.Doc)
	section("topologies", scenario.Topologies.Names(), scenario.Topologies.Doc)
	fmt.Fprintf(&w, "delay distributions:\n  %s\n\n", strings.Join(topology.DelayKinds(), ", "))
	section("metrics", scenario.Metrics.Names(), scenario.Metrics.Doc)
	fmt.Fprintf(&w, "sweep axes:\n  %s\n", strings.Join(scenario.SweepAxes(), ", "))
	return w.String()
}

// attackScope renders which protocols an attack applies to.
func attackScope(name string) string {
	var ps []string
	for _, p := range scenario.Protocols.Names() {
		if p == string(scenario.Sync) {
			for _, s := range scenario.SyncAttacks() {
				if s == name {
					ps = append(ps, p)
				}
			}
			continue
		}
		for _, a := range scenario.AttacksFor(scenario.Protocol(p)) {
			if a == name {
				ps = append(ps, p)
			}
		}
	}
	return strings.Join(ps, " ")
}
