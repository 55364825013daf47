// Command amcheck runs the Section 2 bivalence model checker: it
// exhaustively explores deterministic consensus protocols in the append
// memory and reports which consensus property fails — the executable form
// of Theorem 2.1 — and, for the retry-vote protocol, exhibits the explicit
// non-deciding schedule of the impossibility proof.
//
// Examples:
//
//	amcheck -n 3                 # check the whole threshold-vote family
//	amcheck -n 3 -format json    # the same verdicts as a structured record
//	amcheck -n 3 -retry -cycles 6  # show the non-deciding schedule
//
// Exit codes: 0 on success, 1 on usage errors, 2 when a protocol solves
// consensus (Theorem 2.1 falsified) or the non-deciding schedule is not
// found.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bivalence"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	var (
		n      = flag.Int("n", 3, "number of nodes (2 or 3 recommended)")
		max    = flag.Int("max", 300000, "configuration exploration bound")
		retry  = flag.Bool("retry", false, "analyze the FLP-style retry-vote protocol instead of the family")
		cycles = flag.Int("cycles", 4, "round-robin cycles of the non-deciding schedule (-retry)")
		dot    = flag.Int("dot", 0, "emit the first N configurations of the computation graph as Graphviz DOT and exit")
		format = flag.String("format", "text", "family output format: text | md | json | csv")
	)
	flag.Parse()
	if *n < 2 || *n > 6 {
		fmt.Fprintln(os.Stderr, "amcheck: n must be in [2,6] (state space is exponential)")
		os.Exit(1)
	}
	switch *format {
	case "text", "md", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "amcheck: unknown format %q (want text, md, json or csv)\n", *format)
		os.Exit(1)
	}

	if *dot > 0 {
		p := bivalence.NewThresholdVote(2, bivalence.DecideMajority)
		inputs := make([]int, *n)
		for i := 1; i < *n; i++ {
			inputs[i] = 1
		}
		g := bivalence.Explore(p, bivalence.Initial(p, inputs), *max)
		emit(g.Dot(*dot))
		return
	}

	if *retry {
		p := &bivalence.RetryVote{N: *n}
		inputs := make([]int, *n)
		for i := 1; i < *n; i++ {
			inputs[i] = 1
		}
		var w strings.Builder
		fmt.Fprintf(&w, "protocol %s, inputs %v\n", p.Name(), inputs)
		g := bivalence.Explore(p, bivalence.Initial(p, inputs), *max)
		fmt.Fprintf(&w, "explored %d configurations (truncated: %v)\n", g.Size(), g.Truncated())
		fmt.Fprintf(&w, "initial configuration bivalent (Lemma 2.2): %v\n", g.Bivalent(g.Root()))
		trace, ok := g.NonDecidingSchedule(g.Root(), *cycles)
		fmt.Fprintf(&w, "non-deciding schedule over %d round-robin cycles: ok=%v, %d configurations visited\n",
			*cycles, ok, len(trace))
		if ok {
			w.WriteString("every visited configuration is bivalent and undecided — the Theorem 2.1 adversary in action\n")
		}
		emit(w.String())
		if !ok {
			os.Exit(2)
		}
		return
	}

	// Family check: build a typed table so every format renders from the
	// same structured record.
	tbl := experiments.NewTable("",
		"protocol", "agreement", "validity", "termination", "bivalent-init", "configs", "solves consensus?")
	anyOK := false
	for _, p := range bivalence.Family(*n) {
		v := bivalence.CheckTheorem(p, *n, *max)
		tbl.AddRow(v.Protocol, v.Agreement, v.Validity, v.Termination, v.BivalentInitial, v.Configs, v.OK())
		tbl.Expect(len(tbl.Rows)-1, 6, experiments.OpEq, 0, 0,
			"Theorem 2.1: no deterministic protocol in the family solves 1-resilient consensus")
		if v.OK() {
			anyOK = true
		}
	}
	tbl.Title = fmt.Sprintf("amcheck: threshold-vote family, n=%d, bound %d configurations", *n, *max)
	r := experiments.NewResult("amcheck", "Theorem 2.1 bivalence model check", "Theorem 2.1",
		[]*experiments.Table{tbl})

	switch *format {
	case "text":
		out := report.TableText(tbl)
		if !anyOK {
			out += "\nevery candidate fails at least one property — consistent with Theorem 2.1\n"
		}
		emit(out)
	case "md":
		emit(report.TableMarkdown(tbl))
	case "json":
		if err := report.WriteJSON(os.Stdout, []*experiments.Result{r}); err != nil {
			fatal(err)
		}
	case "csv":
		if err := report.WriteCSV(os.Stdout, []*experiments.Result{r}); err != nil {
			fatal(err)
		}
	}

	if anyOK {
		fmt.Fprintln(os.Stderr, "amcheck: a protocol solved 1-resilient consensus — Theorem 2.1 falsified?!")
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "amcheck:", err)
	os.Exit(1)
}

// emit writes s to stdout; a failed write fails the run.
func emit(s string) {
	if _, err := os.Stdout.WriteString(s); err != nil {
		fatal(err)
	}
}
