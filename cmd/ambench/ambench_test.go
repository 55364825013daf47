package main

import (
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"

	"repro/internal/experiments"
)

// tinySize is a workload at test scale: a few trials, or two cheap
// experiments.
func tinySize(t *testing.T, w workload) size {
	if !w.isSuite() {
		return size{trials: 3}
	}
	var es []experiments.Experiment
	for _, id := range []string{"E2", "E4"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("experiment %s is not registered", id)
		}
		es = append(es, e)
	}
	return size{suite: es}
}

func TestWorkloadsRunAndAgreeAcrossWorkerCounts(t *testing.T) {
	for _, w := range workloads {
		sz := tinySize(t, w)
		var digests []string
		for _, workers := range []int{1, 2} {
			out, err := w.job(0, sz, workers).rep()
			if err != nil || out.failed > 0 || out.digest == "" {
				t.Fatalf("%s at %d workers: %+v, %v", w.name, workers, out, err)
			}
			digests = append(digests, out.digest)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: digest %s at 1 worker, %s at 2", w.name, digests[0], digests[1])
		}
	}
}

func TestTimedRunReportsEveryEndToEndMetricNonZero(t *testing.T) {
	for _, w := range workloads {
		run, err := timed(w.job(1, tinySize(t, w), 2), 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		m := run.metrics()
		if _, err := m.render(endToEnd); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, d := range endToEnd {
			if m[d.name] <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, m[d.name])
			}
		}
	}
}

func TestTracedPassMatchesUntracedAndReplays(t *testing.T) {
	for _, w := range workloads {
		var p *passResult
		var err error
		if w.isSuite() {
			p, err = suitePass(tinySize(t, w).suite, suiteOptions(0, 2))
		} else {
			p, err = trialPass(w.specFor(0, 2), 2)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if _, err := p.metrics.render(perLayer); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(p.tracer.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.name)
		}
		m := p.metrics
		switch w.name {
		case "chain-fork":
			expectPositive(t, w.name, m, "chainba.decide_us", "adversary.grant_us", "chain.extend_us", "appendmem.append_ns")
		case "dag-private":
			expectPositive(t, w.name, m, "dagba.decide_us", "dag.order_us", "dag.order_allocs", "dag.order_useful_ratio")
		case "dag-gossip":
			expectPositive(t, w.name, m, "access.vis_sync_us", "access.vis_deliveries", "topology.build_ms")
		case "long-horizon":
			expectPositive(t, w.name, m, "chainba.compact.calls", "chainba.compact_us")
		case "paper-quick":
			expectPositive(t, w.name, m, "experiments.E2_ms", "experiments.stream_overlap")
		}
	}
}

func expectPositive(t *testing.T, workload string, m metricSet, names ...string) {
	t.Helper()
	for _, name := range names {
		if m[name] <= 0 {
			t.Errorf("%s: %s = %v, want > 0", workload, name, m[name])
		}
	}
}

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !valid.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or repeated", d.name)
		}
		seen[d.name] = true
	}
}

func TestCommittedDigestsCoverEveryInputSet(t *testing.T) {
	table, err := parseDigests(committedDigests)
	if err != nil {
		t.Fatal(err)
	}
	hex := regexp.MustCompile(`^[0-9a-f]{64}$`)
	for _, w := range workloads {
		if len(table[w.name]) != inputSets {
			t.Errorf("%s: %d committed digests, want %d", w.name, len(table[w.name]), inputSets)
		}
		for set, d := range table[w.name] {
			if !hex.MatchString(d) {
				t.Errorf("%s input set %d: digest %q is not a SHA-256", w.name, set, d)
			}
		}
	}
	for seed, want := range map[uint64]int{0: 7, 1: 0, 8: 7, 9: 0, 1<<64 - 1: 6} {
		if got := inputSet(seed); got != want {
			t.Errorf("inputSet(%d) = %d, want %d", seed, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesTheBinary pins the repository's BENCHMARK.json to
// the workloads and metrics this program emits.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bench struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bench.Paths, []string{"cmd/ambench"}) {
		t.Errorf("paths %v, want [cmd/ambench]", bench.Paths)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bench.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind string
		got  []metric
		want []metricDef
	}{{"end_to_end", bench.EndToEnd, endToEnd}, {"per_layer", bench.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the binary", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.want {
			if got := c.got[i]; got != (metric{d.name, d.unit, d.better}) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the binary %+v", c.kind, i, got, d)
			}
		}
	}
}
