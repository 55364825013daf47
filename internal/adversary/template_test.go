package adversary_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
)

// fingerprint renders everything observable about one run — the verdict,
// timing, every message's (author, value, parents), and every decision —
// so two runs fingerprint equal iff they are byte-identical.
func fingerprint(r *agreement.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "verdict=%+v dur=%v grants=%d appends=%d byz=%d\n",
		r.Verdict, r.Duration, r.Grants, r.TotalAppends, r.ByzAppends)
	v := r.FinalView
	for i := 0; i < v.Size(); i++ {
		m := v.Message(appendmem.MsgID(i))
		fmt.Fprintf(&sb, "msg %d a=%d v=%d p=%v\n", i, m.Author, m.Value, m.Parents)
	}
	for i, d := range r.Outcome.Decided {
		if d {
			fmt.Fprintf(&sb, "node %d decided %+d at %v\n", i, r.Outcome.Decision[i], r.DecideTime[i])
		}
	}
	return sb.String()
}

var updatePresets = flag.Bool("update", false, "rewrite testdata/presets.golden")

// presetRun is one pinned preset run: its golden header and fingerprint.
type presetRun struct{ name, fp string }

// chainPresetRuns runs the three chain presets under each tie-break rule,
// seeds 1–8 each, in a fixed order.
func chainPresetRuns() []presetRun {
	presets := []struct {
		name string
		p    adversary.Params
	}{
		{"fork", adversary.Fork},
		{"tiebreak", adversary.TieBreak},
		{"equivocate", adversary.Equivocate},
	}
	tbs := []struct {
		name string
		tb   chain.TieBreaker
	}{
		{"first", chain.FirstTieBreaker{}},
		{"random", chain.RandomTieBreaker{}},
		{"adversarial", chain.AdversarialTieBreaker{
			IsByzantine: func(id appendmem.NodeID) bool { return int(id) >= 10-3 },
		}},
	}
	var runs []presetRun
	for _, c := range presets {
		for _, tb := range tbs {
			for seed := uint64(1); seed <= 8; seed++ {
				cfg := agreement.RandomizedConfig{N: 10, T: 3, Lambda: 1, K: 21, Seed: seed}
				r := agreement.MustRun(cfg, chainba.Rule{TB: tb.tb}, &adversary.ChainAttack{P: c.p})
				runs = append(runs, presetRun{fmt.Sprintf("%s/%s seed %d", c.name, tb.name, seed), fingerprint(r)})
			}
		}
	}
	return runs
}

// dagPresetRuns runs the three DAG presets under each pivot rule, seeds
// 1–8 each, in a fixed order.
func dagPresetRuns() []presetRun {
	presets := []struct {
		name string
		p    adversary.Params
	}{
		{"private-chain", adversary.PrivateChain},
		{"last-minute", adversary.LastMinute},
		{"private-fork", adversary.PrivateFork},
	}
	var runs []presetRun
	for _, c := range presets {
		for _, pivot := range []dagba.PivotRule{dagba.Ghost, dagba.Longest} {
			for seed := uint64(1); seed <= 8; seed++ {
				cfg := agreement.RandomizedConfig{N: 10, T: 4, Lambda: 1, K: 21, Seed: seed}
				r := agreement.MustRun(cfg, dagba.Rule{Pivot: pivot}, &adversary.DagAttack{P: c.p, Pivot: pivot})
				runs = append(runs, presetRun{fmt.Sprintf("%s/%v seed %d", c.name, pivot, seed), fingerprint(r)})
			}
		}
	}
	return runs
}

// checkPresetGolden compares runs against testdata/presets.golden, which
// holds one "== name" header and fingerprint per run. The golden was
// written while the hand-coded strategies the presets reproduce still
// existed and matched them run for run; rewrite it with -update only for
// an intended behaviour change.
func checkPresetGolden(t *testing.T, runs []presetRun) {
	t.Helper()
	path := filepath.Join("testdata", "presets.golden")
	if *updatePresets {
		var b strings.Builder
		for _, r := range append(chainPresetRuns(), dagPresetRuns()...) {
			fmt.Fprintf(&b, "== %s\n%s", r.name, r.fp)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	var cur string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "== "); ok {
			cur = strings.TrimSuffix(name, "\n")
			continue
		}
		golden[cur] += line
	}
	for _, r := range runs {
		want, ok := golden[r.name]
		if !ok {
			t.Fatalf("%s: run %q missing", path, r.name)
		}
		if r.fp == want {
			continue
		}
		gl, wl := strings.Split(r.fp, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s diverges from %s at line %d of the run:\n got: %s\nwant: %s", r.name, path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s diverges from %s: %d lines, want %d", r.name, path, len(gl), len(wl))
	}
}

// TestChainPresetsByteIdentical pins the chain presets under every
// tie-break rule against the golden.
func TestChainPresetsByteIdentical(t *testing.T) { checkPresetGolden(t, chainPresetRuns()) }

// TestDagPresetsByteIdentical pins the DAG presets under both pivot rules
// against the golden.
func TestDagPresetsByteIdentical(t *testing.T) { checkPresetGolden(t, dagPresetRuns()) }

// TestSchemaValidation exercises the parameter schema: unknown names are
// rejected with the valid set enumerated, range and kind violations are
// rejected, and valid overrides land in the right fields.
func TestSchemaValidation(t *testing.T) {
	s := adversary.ChainSchema()
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"no_such": adversary.IntVal(1)}); err == nil || !strings.Contains(err.Error(), "fork_count") {
		t.Fatalf("unknown parameter not rejected with valid set: %v", err)
	}
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"fork_count": adversary.IntVal(-1)}); err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("out-of-range int not rejected: %v", err)
	}
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"fork_count": adversary.FloatVal(1.5)}); err == nil {
		t.Fatalf("non-integer int not rejected")
	}
	if _, err := s.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"target": adversary.StrVal("nonsense")}); err == nil {
		t.Fatalf("bad enum not rejected")
	}
	p, err := s.Resolve(adversary.Params{ForkPeriod: 1, Fanout: 1}, map[string]adversary.ParamValue{
		"fork_count":  adversary.IntVal(2),
		"fork_period": adversary.IntVal(4),
		"fork_lonely": adversary.BoolVal(true),
		"target":      adversary.StrVal(adversary.TargetFirst),
		"withhold":    adversary.FloatVal(0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.ForkCount != 2 || p.ForkPeriod != 4 || !p.ForkLonely || p.Target != adversary.TargetFirst || p.Withhold != 0.5 {
		t.Fatalf("overrides not applied: %+v", p)
	}

	d := adversary.DagSchema()
	if _, err := d.Resolve(adversary.Params{}, map[string]adversary.ParamValue{
		"fork_count": adversary.IntVal(1)}); err == nil {
		t.Fatalf("chain parameter accepted by dag schema")
	}
}

// TestTemplateNewCapabilities smoke-tests parameterizations outside the
// preset space: they must run, terminate and stay deterministic.
func TestTemplateNewCapabilities(t *testing.T) {
	chainP := adversary.Params{ForkCount: 2, ForkPeriod: 3, Target: adversary.TargetFirst, Fanout: 3, Withhold: 0.5}
	dagP := adversary.Params{Root: adversary.RootGenesis, Segment: 4, Fanout: 3, Withhold: 0.25}
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := agreement.RandomizedConfig{N: 10, T: 4, Lambda: 1, K: 21, Seed: seed}
		a := fingerprint(agreement.MustRun(cfg, chainba.Rule{TB: chain.FirstTieBreaker{}}, &adversary.ChainAttack{P: chainP}))
		b := fingerprint(agreement.MustRun(cfg, chainba.Rule{TB: chain.FirstTieBreaker{}}, &adversary.ChainAttack{P: chainP}))
		if a != b {
			t.Fatalf("chain template with withhold is not deterministic at seed %d", seed)
		}
		a = fingerprint(agreement.MustRun(cfg, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: dagP, Pivot: dagba.Ghost}))
		b = fingerprint(agreement.MustRun(cfg, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: dagP, Pivot: dagba.Ghost}))
		if a != b {
			t.Fatalf("dag template with withhold is not deterministic at seed %d", seed)
		}
	}
}
