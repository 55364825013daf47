package scenario

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/node"
)

var updateOrderMetrics = flag.Bool("update", false, "rewrite testdata/order_metrics.golden")

// TestOrderMetricsGolden pins the metrics that read a run's canonical
// order — max-byz-run, byz-prefix-share and violations — over chain
// sweeps under every tie-break, DAG sweeps under both pivots, and points
// with a confirmation depth. Values are printed at full precision, so any
// change to the order, the k-prefix cut or the Byzantine count shows.
func TestOrderMetricsGolden(t *testing.T) {
	metrics := []string{"max-byz-run", "byz-prefix-share", "violations"}
	specs := []Spec{
		{Name: "chain-fork", Protocol: Chain, N: 9, T: 3, Lambda: 0.5, K: 21, Attack: AttackFork,
			Sweep: []Axis{{Name: "tiebreak", Values: []Value{
				{Str: string(TieRandom), IsStr: true}, {Str: string(TieFirst), IsStr: true},
				{Str: string(TieAdversarial), IsStr: true}}}}},
		{Name: "chain-flip", Protocol: Chain, N: 10, T: 3, Lambda: 1, K: 21, Attack: AttackFlip,
			Sweep: []Axis{{Name: "confirm", Values: []Value{{Num: 0}, {Num: 3}}}}},
		{Name: "dag-private-fork", Protocol: Dag, N: 10, T: 4, Lambda: 2, K: 41, Attack: AttackPrivateFork,
			Sweep: []Axis{{Name: "pivot", Values: []Value{
				{Str: string(PivotGhost), IsStr: true}, {Str: string(PivotLongest), IsStr: true}}}}},
		{Name: "dag-flip", Protocol: Dag, N: 8, T: 2, Lambda: 0.5, K: 15, Attack: AttackFlip, Pivot: PivotLongest,
			Confirm: 2},
	}
	var sb strings.Builder
	for _, spec := range specs {
		spec.Trials, spec.Seed, spec.Metrics = 12, 7, metrics
		res, err := RunSpec(spec, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range res.Points {
			fmt.Fprintf(&sb, "%s", spec.Name)
			for i, c := range pt.Coords {
				fmt.Fprintf(&sb, " %s=%s", res.Axes[i], c.Text())
			}
			for _, m := range pt.Metrics {
				fmt.Fprintf(&sb, " %s=%s/%d", m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Count)
			}
			sb.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "order_metrics.golden")
	if *updateOrderMetrics {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("order metrics differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestOrderMetricsEmptyOrderIsNaN: a run that appended nothing has an
// empty canonical order, on which both order metrics are undefined.
func TestOrderMetricsEmptyOrderIsNaN(t *testing.T) {
	for _, p := range []Protocol{Chain, Dag} {
		b := MustBind(Spec{Protocol: p, N: 4, T: 1, Lambda: 1, K: 5})
		names := []string{"max-byz-run", "byz-prefix-share"}
		_, defs, err := ResolveMetrics(Spec{Metrics: names})
		if err != nil {
			t.Fatal(err)
		}
		extract, err := b.MetricExtractors(defs)
		if err != nil {
			t.Fatal(err)
		}
		r := &Result{Roster: node.NewRoster(4, 1), Mem: appendmem.New(4)}
		for i, f := range extract {
			if v := f(r); !math.IsNaN(v) {
				t.Errorf("%s %s on an empty order = %v, want NaN", p, names[i], v)
			}
		}
	}
}
