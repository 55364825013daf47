// Command amexp regenerates the paper's experiments (see DESIGN.md's
// experiment index): each experiment corresponds to one theorem or lemma
// and prints the measured tables next to the analytic predictions.
//
// Examples:
//
//	amexp -list
//	amexp -e E10
//	amexp -e E5,E8,E10
//	amexp -e all -quick
//	amexp -e E6 -trials 200 -seed 42
//	amexp -e all -quick -format json -o results.json
//	amexp -e all -quick -check
//	amexp -e all -timing
//
// Selected experiments run concurrently on the shared trial scheduler;
// output is still emitted in selection order, so it is byte-identical to
// a serial run. -timing reports each experiment's wall clock on stderr.
//
// Exit codes: 0 on success, 1 on usage errors, 2 when -check finds a
// failed prediction.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/profile"
	"repro/internal/report"
)

func main() {
	os.Exit(run())
}

// run carries the whole program so deferred cleanups (profile writers,
// output files) execute before the process exits with a status code.
func run() int {
	all := experiments.All()
	eHelp := fmt.Sprintf("experiment id (%s..%s), a comma-separated list, or 'all'", all[0].ID, all[len(all)-1].ID)
	var (
		exp     = flag.String("e", "all", eHelp)
		trials  = flag.Int("trials", 0, "trials per parameter point (0 = experiment default)")
		seed    = flag.Uint64("seed", 1, "base seed")
		quick   = flag.Bool("quick", false, "trimmed parameter grids")
		workers = flag.Int("workers", 0, "parallel trial workers (0 = GOMAXPROCS)")
		list    = flag.Bool("list", false, "list experiments and exit")
		format  = flag.String("format", "text", "output format: text | md | json | csv")
		bars    = flag.Int("bars", -1, "also render this column index of each table as an ASCII bar chart (text/md only)")
		check   = flag.Bool("check", false, "evaluate each experiment's predictions; exit 2 if any fail")
		timing  = flag.Bool("timing", false, "report per-experiment and total wall clock on stderr")
		outPath = flag.String("o", "", "write output to this file instead of stdout")
	)
	prof := profile.Register(flag.CommandLine)
	flag.Parse()

	if *list {
		var w strings.Builder
		for _, e := range all {
			fmt.Fprintf(&w, "%-4s %-55s %s\n", e.ID, e.Title, e.PaperRef)
		}
		if _, err := os.Stdout.WriteString(w.String()); err != nil {
			fmt.Fprintf(os.Stderr, "amexp: %v\n", err)
			return 1
		}
		return 0
	}

	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "amexp: %v\n", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintf(os.Stderr, "amexp: %v\n", err)
		}
	}()

	switch *format {
	case "text", "md", "json", "csv":
	default:
		fmt.Fprintf(os.Stderr, "amexp: unknown format %q (want text, md, json or csv)\n", *format)
		return 1
	}

	opts := experiments.Options{Trials: *trials, Seed: *seed, Quick: *quick, Workers: *workers}
	var selected []experiments.Experiment
	if strings.EqualFold(*exp, "all") {
		selected = all
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				fmt.Fprintf(os.Stderr, "amexp: empty experiment id in %q\n", *exp)
				return 1
			}
			e, ok := experiments.ByID(id)
			if !ok {
				ids := make([]string, len(all))
				for i, a := range all {
					ids[i] = a.ID
				}
				fmt.Fprintf(os.Stderr, "amexp: unknown experiment %q (valid: %s, or 'all')\n", id, strings.Join(ids, ", "))
				return 1
			}
			selected = append(selected, e)
		}
	}

	// out latches the first write error; it is flushed after each
	// experiment so text output still streams, and checked with the
	// file's Close once at the end.
	out, closeOut := bufio.NewWriter(os.Stdout), func() error { return nil }
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "amexp: %v\n", err)
			return 1
		}
		out, closeOut = bufio.NewWriter(f), f.Close
	}

	failed := 0
	var results []*experiments.Result
	start := time.Now()
	// All selected experiments run concurrently on the shared trial
	// scheduler; RunStream hands back results in selection order, so the
	// text/md streams below are byte-identical to a serial run.
	experiments.RunStream(selected, opts, func(r *experiments.Result) {
		if *timing {
			fmt.Fprintf(os.Stderr, "amexp: %-4s %v", r.ID, r.Elapsed.Round(time.Millisecond))
			if r.Reuse != nil {
				fmt.Fprintf(os.Stderr, "  checkpoints captured=%d resumed=%d", r.Reuse.Captured, r.Reuse.Resumed)
			}
			fmt.Fprintln(os.Stderr)
		}
		switch *format {
		case "text", "md":
			// Stream each experiment as it is handed back, interleaving
			// the optional bar charts between tables.
			fmt.Fprint(out, report.Header(r))
			for _, t := range r.Tables {
				if *format == "md" {
					fmt.Fprintln(out, report.TableMarkdown(t))
				} else {
					fmt.Fprintln(out, report.TableText(t))
				}
				if *bars >= 0 && *bars < len(t.Cols) {
					fmt.Fprintln(out, report.Bars(t, *bars, 40))
				}
			}
			if *check {
				fmt.Fprintln(out, report.ChecksText(r))
			}
			out.Flush()
		default:
			results = append(results, r)
		}
		if *check {
			failed += experiments.FailedChecks(r.EvalChecks())
		}
	})
	if *timing {
		fmt.Fprintf(os.Stderr, "amexp: total %v\n", time.Since(start).Round(time.Millisecond))
	}

	var writeErr error
	switch *format {
	case "json":
		writeErr = report.WriteJSON(out, results)
	case "csv":
		writeErr = report.WriteCSV(out, results)
	}
	if writeErr == nil {
		writeErr = out.Flush()
	}
	if err := errors.Join(writeErr, closeOut()); err != nil {
		fmt.Fprintf(os.Stderr, "amexp: %v\n", err)
		return 1
	}
	if *format == "json" || *format == "csv" {
		if *check {
			for _, r := range results {
				fmt.Fprint(os.Stderr, report.ChecksText(r))
			}
		}
	}

	if *check && failed > 0 {
		fmt.Fprintf(os.Stderr, "amexp: %d prediction check(s) failed\n", failed)
		return 2
	}
	return 0
}
