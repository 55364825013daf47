// Command ambench is the repository's benchmark. It runs named workloads
// through the public APIs of the simulator's packages, checks each
// repetition's output against a committed digest, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: correct, attempted, failed and metrics.
//
// From this directory (the benchmark is a module of its own):
//
//	go run . -workload chain-fork -seed 1 -seconds 20    # end-to-end metrics
//	go run . -workload dag-private -trace 1              # per-layer metrics and a JSONL trace
//	go run .                                             # every workload, each in a child process
//	go run . -workload chain-fork -update                # re-record that workload's digests
//
// From the repository root, python3 cmd/ambench/run.py takes the same
// flags; it builds the binary under .bench_build first. README.md describes
// the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

// benchWorkers is the closed loop's width: the trial fan-out's worker
// count and GOMAXPROCS, both 2, the core count of the machine the
// benchmark was sized on.
const benchWorkers = 2

func main() {
	runtime.GOMAXPROCS(benchWorkers)
	os.Exit(run(os.Args[1:]))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string) int {
	fs := flag.NewFlagSet("ambench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+"; empty runs every workload, each in a child process")
	seed := fs.Uint64("seed", 1, fmt.Sprintf("input seed; selects one of %d committed input sets", inputSets))
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	traceMode := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics instead of end-to-end ones")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/ambench/trace-<workload>.jsonl)")
	update := fs.Bool("update", false, "re-record the committed digests of every input set, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintf(os.Stderr, "ambench: -trace must be 0 or 1, got %d\n", *traceMode)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "ambench: -seconds must be positive, got %v\n", *seconds)
		return 2
	}
	if *name == "" {
		return runAll(args)
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "ambench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	}
	if *update {
		if err := recordDigests(w, benchWorkers, digestPath()); err != nil {
			fmt.Fprintf(os.Stderr, "ambench: %v\n", err)
			return 1
		}
		return 0
	}
	digests, err := parseDigests(committedDigests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ambench: %v\n", err)
		return 1
	}
	set := inputSet(*seed)
	budget := time.Duration(*seconds * float64(time.Second))
	fmt.Printf("ambench %s: seed %d (input set %d), %d workers, %v budget\n", w.name, *seed, set, benchWorkers, budget)
	var res result
	if *traceMode == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "ambench", "trace-"+w.name+".jsonl")
		}
		res = traceWorkload(w, set, digests, budget, path)
	} else {
		res = endToEndWorkload(w, set, digests, budget)
	}
	if res.Attempted > 0 {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ambench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, " | ")
}

// digestPath locates the committed digest table in the source tree.
func digestPath() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "testdata", "digests.json")
}

// runAll runs every workload in a child process of its own, one at a
// time, so peak RSS and GC state stay per workload.
func runAll(args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ambench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(slices.Clone(args), "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "ambench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

// fail reports err and marks the result incorrect.
func (r *result) fail(err error) result {
	fmt.Fprintf(os.Stderr, "ambench: %v\n", err)
	r.Correct = false
	return *r
}

// endToEndWorkload is the untraced run: set-ups, then timed repetitions.
// A digest mismatch fails every op of the run.
func endToEndWorkload(w workload, set int, digests digestTable, budget time.Duration) result {
	run, err := timed(w.job(set, w.fullSize(), benchWorkers), budget)
	res := result{Attempted: run.ops, Failed: run.failed}
	if err != nil {
		return res.fail(err)
	}
	var mismatch error
	for i, d := range run.digests {
		if err := digests.check(w.name, set, d); err != nil {
			mismatch = errors.Join(mismatch, fmt.Errorf("repetition %d: %w", i, err))
		}
	}
	if mismatch != nil {
		res.Failed = res.Attempted
	}
	m := run.metrics()
	fmt.Print(m.table(endToEnd))
	fmt.Printf("  repetition wall time quartiles %.6g .. %.6g, fastest %.6g, over %d repetitions of %d ops; set-up median of %d\n",
		quantile(run.wall, 0.25), quantile(run.wall, 0.75), slices.Min(run.wall), len(run.wall), run.opsRep, len(run.setup))
	if !w.isSuite() {
		fmt.Printf("  appends_per_s %.6g (%.0f simulated appends per repetition)\n", run.appends/m["wall_s"], run.appends)
	}
	fmt.Printf("  max_rss_mb %.6g (not gated: it follows GC pacing)\n", run.rssMB)
	fmt.Printf("  failed_frac %.6g (%d of %d ops)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	if mismatch != nil {
		return res.fail(mismatch)
	}
	fmt.Printf("  digest %s matches input set %d\n", run.digests[0], set)
	if res.Metrics, err = m.render(endToEnd); err != nil {
		return res.fail(err)
	}
	res.Correct = res.Failed == 0
	return res
}

// traceWorkload is the traced run. For a trial workload it first checks
// one full repetition's digest, then traces passes over that repetition's
// first trials; for the suite each pass runs every experiment alone and
// then concurrently, and checks the digest.
func traceWorkload(w workload, set int, digests digestTable, budget time.Duration, path string) result {
	var res result
	var pass func() (*passResult, error)
	if w.isSuite() {
		es, opts := experiments.All(), suiteOptions(set, benchWorkers)
		pass = func() (*passResult, error) {
			p, err := suitePass(es, opts)
			if err == nil {
				err = digests.check(w.name, set, p.digest)
			}
			return p, err
		}
	} else {
		out, err := w.job(set, w.fullSize(), benchWorkers).rep()
		res.Attempted, res.Failed = out.ops, out.failed
		if err == nil {
			err = digests.check(w.name, set, out.digest)
		}
		if err != nil {
			res.Failed = res.Attempted
			return res.fail(err)
		}
		spec := w.specFor(set, (w.trials+tracedShare-1)/tracedShare)
		pass = func() (*passResult, error) { return trialPass(spec, benchWorkers) }
	}
	m, passes, err := tracedRun(pass, budget)
	for _, p := range passes {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	if err != nil {
		res.Failed = res.Attempted
		return res.fail(err)
	}
	if err := passes[0].tracer.writeJSONL(path); err != nil {
		return res.fail(fmt.Errorf("writing the trace: %w", err))
	}
	fmt.Print(m.table(perLayer))
	fmt.Print(attribution(m))
	fmt.Printf("  %d passes; spans of the first (%d) written to %s\n", len(passes), len(passes[0].tracer.spans), path)
	if res.Metrics, err = m.render(perLayer); err != nil {
		return res.fail(err)
	}
	res.Correct = res.Failed == 0
	return res
}

// attribution prints how a traced trial's time splits between the rule,
// the adversary and the harness itself.
func attribution(m metricSet) string {
	run := m["agreement.run_us"]
	if run == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("  share of agreement.run_us:")
	for _, name := range []string{"chainba.append_us", "chainba.decide_us", "chainba.compact_us",
		"dagba.append_us", "dagba.decide_us", "dagba.compact_us", "adversary.grant_us", "agreement.self_us"} {
		if v := m[name]; v > 0 {
			fmt.Fprintf(&b, " %s %.1f%%", strings.TrimSuffix(name, "_us"), 100*v/run)
		}
	}
	b.WriteString("\n")
	return b.String()
}
