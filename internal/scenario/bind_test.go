package scenario

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/agreement/syncba"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/trace"
)

type bindErrorCase struct {
	name string
	spec Spec
	want string // substring of the error
}

func TestBindErrors(t *testing.T) {
	expect := func(t *testing.T, cases []bindErrorCase) {
		for _, tc := range cases {
			_, err := Bind(tc.spec)
			if err == nil {
				t.Errorf("%s: Bind accepted %+v", tc.name, tc.spec)
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
			}
		}
	}
	expect(t, []bindErrorCase{
		{"n zero", Spec{Protocol: Chain, N: 0}, "invalid roster"},
		{"t >= n", Spec{Protocol: Chain, N: 4, T: 4}, "invalid roster"},
		{"crashes overflow", Spec{Protocol: Chain, N: 4, T: 2, Crashes: 3}, "crashes"},
		{"unknown attack", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Attack: "ddos"}, "unknown attack"},
		{"randomized attack on sync", Spec{Protocol: Sync, N: 4, T: 1, Attack: AttackFlip}, "not valid for protocol sync"},
		{"sync attack on chain", Spec{Protocol: Chain, N: 4, T: 1, Lambda: 1, K: 5, Attack: AttackDelayedChain}, "not valid for protocol"},
		{"lambda missing", Spec{Protocol: Chain, N: 4, K: 5}, "lambda"},
		{"k missing", Spec{Protocol: Chain, N: 4, Lambda: 1}, "k > 0"},
		{"rates length", Spec{Protocol: Chain, N: 4, Rates: []float64{1, 1}, K: 5}, "rates"},
		{"rate non-positive", Spec{Protocol: Chain, N: 4, Rates: []float64{1, 1, 0, 1}, K: 5}, "non-positive"},
		{"round-robin on sync", Spec{Protocol: Sync, N: 4, T: 1, Access: AccessRoundRobin}, "randomized protocols only"},
		{"unknown access", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Access: "lottery"}, "unknown access"},
		{"round-robin with rates", Spec{Protocol: Chain, N: 4, T: 1, K: 9, Rates: []float64{1, 1, 1, 1}, Access: AccessRoundRobin}, "per-node rates"},
		{"confirm on timestamp", Spec{Protocol: Timestamp, N: 4, Lambda: 1, K: 5, Confirm: 3}, "confirm"},
	})
	// Unknown names and attacks bound to a protocol they do not target.
	t.Run("bad-combos", func(t *testing.T) {
		expect(t, []bindErrorCase{
			{"unknown protocol", Spec{Protocol: "blockchain", N: 4}, "unknown protocol"},
			{"chain attack on timestamp", Spec{Protocol: Timestamp, N: 4, T: 1, Lambda: 1, K: 3, Attack: AttackFork}, "not valid for protocol"},
			{"dag attack on chain", Spec{Protocol: Chain, N: 4, T: 1, Lambda: 1, K: 3, Attack: AttackPrivateChain}, "not valid for protocol"},
			{"chain attack on dag", Spec{Protocol: Dag, N: 4, T: 1, Lambda: 1, K: 5, Attack: AttackTieBreak}, "not valid for protocol"},
			{"chain attack on sync", Spec{Protocol: Sync, N: 4, T: 1, Attack: AttackFork}, "not valid for protocol sync"},
			{"unknown tiebreak", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, TieBreak: "coin"}, "unknown tie-break"},
			{"unknown pivot", Spec{Protocol: Dag, N: 4, Lambda: 1, K: 5, Pivot: "heaviest"}, "unknown pivot"},
			{"bad inputs", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Inputs: "bogus"}, "input spec"},
			{"split out of range", Spec{Protocol: Chain, N: 4, Lambda: 1, K: 5, Inputs: "split:9"}, "input spec"},
		})
	})
}

func TestBindDefaults(t *testing.T) {
	b := MustBind(Spec{Protocol: Chain, N: 4, T: 1, Lambda: 1, K: 5})
	if b.IsSync() {
		t.Fatal("chain bound as sync")
	}
	// Default attack is silent; default inputs all-+1.
	if _, ok := b.NewAdversary().(agreement.Silent); !ok {
		t.Errorf("default adversary = %T, want agreement.Silent", b.NewAdversary())
	}
	if got := b.inputs(1); !reflect.DeepEqual(got, node.AllSame(4, +1)) {
		t.Errorf("default inputs = %v", got)
	}

	s := MustBind(Spec{Protocol: Sync, N: 4, T: 1})
	if !s.IsSync() {
		t.Fatal("sync bound as randomized")
	}
}

// TestDifferentialChain: binding a chain spec must reproduce, bit for
// bit, what the experiments' direct agreement.MustRun calls produce at
// the same seed — this is the equivalence the migration relies on.
func TestDifferentialChain(t *testing.T) {
	b := MustBind(Spec{
		Protocol: Chain, N: 6, T: 2, Lambda: 0.5, K: 11,
		Attack: AttackTieBreak,
	})
	for seed := uint64(1); seed <= 5; seed++ {
		got := b.Randomized(seed)
		want := agreement.MustRun(
			agreement.RandomizedConfig{N: 6, T: 2, Lambda: 0.5, K: 11, Seed: seed},
			chainba.Rule{TB: chain.RandomTieBreaker{}},
			&adversary.ChainAttack{P: adversary.TieBreak})
		assertSameRandomized(t, seed, got, want)
	}
}

// TestDifferentialDag: same equivalence for a DAG spec with non-default
// pivot, heterogeneous rates, crashes and random inputs.
func TestDifferentialDag(t *testing.T) {
	rates := []float64{1, 1, 1, 2, 2, 2}
	b := MustBind(Spec{
		Protocol: Dag, N: 6, T: 2, Rates: rates, K: 11,
		Pivot: PivotLongest, Attack: AttackPrivateChain,
		Crashes: 1, Inputs: "split:2",
	})
	for seed := uint64(1); seed <= 5; seed++ {
		got := b.Randomized(seed)
		want := agreement.MustRun(
			agreement.RandomizedConfig{
				N: 6, T: 2, Rates: rates, K: 11, Seed: seed,
				Crashes: 1, Inputs: node.SplitInputs(6, 2),
			},
			dagba.Rule{Pivot: dagba.Longest},
			&adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Longest})
		assertSameRandomized(t, seed, got, want)
	}
}

// TestDifferentialSync: the sync harness path must match direct
// syncba.Run calls.
func TestDifferentialSync(t *testing.T) {
	b := MustBind(Spec{Protocol: Sync, N: 5, T: 2, Attack: AttackLoudFlip})
	for seed := uint64(1); seed <= 5; seed++ {
		got := b.Sync(seed)
		want, err := syncba.Run(
			syncba.Config{N: 5, T: 2, Seed: seed, Inputs: node.AllSame(5, +1)},
			&syncba.LoudFlip{})
		if err != nil {
			t.Fatalf("seed %d: direct run: %v", seed, err)
		}
		if got.Verdict != want.Verdict {
			t.Errorf("seed %d: verdict %+v != %+v", seed, got.Verdict, want.Verdict)
		}
		if !reflect.DeepEqual(got.Outcome, want.Outcome) {
			t.Errorf("seed %d: outcome differs", seed)
		}
		if got.Duration != want.Duration {
			t.Errorf("seed %d: duration %v != %v", seed, got.Duration, want.Duration)
		}
	}
}

func assertSameRandomized(t *testing.T, seed uint64, got, want *agreement.Result) {
	t.Helper()
	if got.Verdict != want.Verdict {
		t.Errorf("seed %d: verdict %+v != %+v", seed, got.Verdict, want.Verdict)
	}
	if !reflect.DeepEqual(got.Outcome, want.Outcome) {
		t.Errorf("seed %d: outcome differs", seed)
	}
	if got.TotalAppends != want.TotalAppends || got.ByzAppends != want.ByzAppends || got.Grants != want.Grants {
		t.Errorf("seed %d: appends %d/%d/%d != %d/%d/%d", seed,
			got.TotalAppends, got.ByzAppends, got.Grants,
			want.TotalAppends, want.ByzAppends, want.Grants)
	}
	if got.Duration != want.Duration {
		t.Errorf("seed %d: duration %v != %v", seed, got.Duration, want.Duration)
	}
	if !reflect.DeepEqual(got.DecideTime, want.DecideTime) {
		t.Errorf("seed %d: decide times differ", seed)
	}
}

// TestUnifiedRun: Run must populate the uniform Result, agree with the
// harness-specific entry points, replay identically at the same seed with
// tracing on or off, and carry every spec knob through to the run.
func TestUnifiedRun(t *testing.T) {
	ok := func(t *testing.T, r *Result, _ *trace.Recorder) {
		if !r.Verdict.OK() {
			t.Errorf("verdict %+v", r.Verdict)
		}
	}
	inputs := func(want func(in []int64) bool) func(*testing.T, *Result, *trace.Recorder) {
		return func(t *testing.T, r *Result, _ *trace.Recorder) {
			if !want(r.Inputs) {
				t.Errorf("inputs %v", r.Inputs)
			}
		}
	}
	type unifiedCase struct {
		name  string
		spec  Spec
		check func(t *testing.T, r *Result, rec *trace.Recorder) // nil: the common checks only
	}
	cases := []unifiedCase{
		{"dag-matches-randomized", Spec{Protocol: Dag, N: 5, T: 1, Lambda: 1, K: 7, Seed: 3},
			func(t *testing.T, r *Result, _ *trace.Recorder) {
				direct := MustBind(Spec{Protocol: Dag, N: 5, T: 1, Lambda: 1, K: 7}).Randomized(3)
				if r.Verdict != direct.Verdict || r.TotalAppends != direct.TotalAppends || r.Duration != direct.Duration {
					t.Error("Run disagrees with Randomized at the same seed")
				}
			}},
		{"sync-view", Spec{Protocol: Sync, N: 4, T: 1, Seed: 3},
			func(t *testing.T, r *Result, _ *trace.Recorder) {
				if r.TotalAppends != r.FinalView.Size() {
					t.Errorf("sync appends %d != view size %d", r.TotalAppends, r.FinalView.Size())
				}
			}},
		{"chain-tiebreak", Spec{Protocol: Chain, N: 8, T: 2, Lambda: 0.5, K: 15, Seed: 77, Attack: AttackTieBreak}, nil},
		{"crashes", Spec{Protocol: Dag, N: 8, Crashes: 3, Lambda: 0.5, K: 11, Seed: 4},
			func(t *testing.T, r *Result, rec *trace.Recorder) {
				ok(t, r, rec)
				if len(r.Roster.Correct()) != 5 {
					t.Errorf("correct = %d, want 5", len(r.Roster.Correct()))
				}
			}},
		// The burst-free authority completes runs with a perfectly even
		// grant pattern: per-node GRANT counts differ by at most one
		// (appends can differ more — nodes stop appending once decided).
		{"round-robin", Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 24, Access: AccessRoundRobin, Seed: 2},
			func(t *testing.T, r *Result, rec *trace.Recorder) {
				ok(t, r, rec)
				counts := make([]int, 6)
				for _, e := range rec.Events() {
					if e.Kind == trace.Grant {
						counts[e.Node]++
					}
				}
				if slices.Max(counts)-slices.Min(counts) > 1 {
					t.Errorf("round-robin grants uneven: %v", counts)
				}
			}},
	}
	// Every protocol satisfies agreement, validity and termination
	// against the silent adversary.
	protocols := []unifiedCase{
		{"sync", Spec{Protocol: Sync, N: 7, T: 2, Seed: 1}, ok},
		{"timestamp", Spec{Protocol: Timestamp, N: 8, T: 2, Lambda: 0.5, K: 11, Seed: 1}, ok},
		{"chain", Spec{Protocol: Chain, N: 8, T: 2, Lambda: 0.2, K: 11, Seed: 1}, ok},
		{"dag", Spec{Protocol: Dag, N: 8, T: 2, Lambda: 0.5, K: 11, Seed: 1}, ok},
	}
	inputSpecs := []unifiedCase{
		{"default", Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 5, Seed: 2},
			inputs(func(in []int64) bool { return in[0] == 1 && in[5] == 1 })},
		{"same", Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 5, Seed: 2, Inputs: "same"},
			inputs(func(in []int64) bool { return in[0] == 1 })},
		{"same-minus", Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 5, Seed: 2, Inputs: "same:-1"},
			inputs(func(in []int64) bool { return in[0] == -1 })},
		{"split", Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 5, Seed: 2, Inputs: "split:2"},
			inputs(func(in []int64) bool { return in[0] == 1 && in[1] == 1 && in[2] == -1 })},
		{"random", Spec{Protocol: Timestamp, N: 6, Lambda: 1, K: 5, Seed: 2, Inputs: "random"},
			inputs(func(in []int64) bool { return in[0] == 1 || in[0] == -1 })},
	}
	// The loud flip cannot hurt sync BA at t < n/2; the delayed chain
	// breaks agreement when the protocol stops before round t+1.
	syncAttacks := []unifiedCase{
		{"loud-flip", Spec{Protocol: Sync, N: 8, T: 3, Seed: 1, Attack: AttackLoudFlip}, ok},
		{"delayed-chain", Spec{Protocol: Sync, N: 8, T: 3, Rounds: 2, Seed: 1, Inputs: "split:3", Attack: AttackDelayedChain},
			func(t *testing.T, r *Result, _ *trace.Recorder) {
				if r.Verdict.Agreement {
					t.Error("delayed chain at rounds < t+1 did not break agreement on seed 1")
				}
			}},
	}
	run := func(t *testing.T, tc unifiedCase) {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Bind(tc.spec)
			if err != nil {
				t.Fatalf("Bind: %v", err)
			}
			rec := trace.New()
			r, err := b.RunTraced(tc.spec.Seed, rec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !r.HasView || r.FinalView.Size() == 0 || r.TotalAppends == 0 {
				t.Error("Run did not carry the final view and appends")
			}
			again, err := b.Run(tc.spec.Seed)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if again.TotalAppends != r.TotalAppends || again.Duration != r.Duration ||
				!reflect.DeepEqual(again.Decision, r.Decision) {
				t.Error("same spec and seed produced different runs")
			}
			if tc.check != nil {
				tc.check(t, r, rec)
			}
		})
	}
	for _, tc := range cases {
		run(t, tc)
	}
	for _, g := range []struct {
		name  string
		cases []unifiedCase
	}{{"protocols", protocols}, {"inputs", inputSpecs}, {"sync-attacks", syncAttacks}} {
		t.Run(g.name, func(t *testing.T) {
			for _, tc := range g.cases {
				run(t, tc)
			}
		})
	}
}

// verdicts are the default metrics' counts at a single-point sweep.
type verdicts struct{ Trials, OK, Agreement, Validity, Termination int }

// runVerdicts runs spec for trials seeds through RunSpec and reads the
// default metrics, checking that each rate is its count over the trials.
func runVerdicts(t *testing.T, spec Spec, trials int) verdicts {
	t.Helper()
	spec.Trials = trials
	res, err := RunSpec(spec, Options{})
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	pt := res.Points[0]
	v := verdicts{Trials: pt.Trials}
	for _, mv := range pt.Metrics {
		if mv.Value != float64(mv.Count)/float64(pt.Trials) {
			t.Fatalf("metric %s: value %v is not %d/%d", mv.Name, mv.Value, mv.Count, pt.Trials)
		}
		switch mv.Name {
		case "ok":
			v.OK = mv.Count
		case "agreement":
			v.Agreement = mv.Count
		case "validity":
			v.Validity = mv.Count
		case "termination":
			v.Termination = mv.Count
		}
	}
	return v
}

// TestRunSpecVerdicts: RunSpec's default metrics count consistent
// verdicts over seeds Seed, Seed+1, ..., and the adversary and ablation
// knobs move them the way the paper says.
func TestRunSpecVerdicts(t *testing.T) {
	cases := []struct {
		name   string
		spec   Spec
		trials int
		check  func(t *testing.T, v verdicts) // nil: the common checks only
	}{
		{"chain", Spec{Protocol: Chain, N: 5, T: 1, Lambda: 1, K: 7, Seed: 1}, 4, nil},
		{"dag", Spec{Protocol: Dag, N: 8, T: 2, Lambda: 0.5, K: 11, Seed: 10}, 5,
			func(t *testing.T, v verdicts) {
				if v.OK == 0 {
					t.Errorf("no trial ok: %+v", v)
				}
			}},
		// The flip attack must hurt validity at small k.
		{"flip-wiring", Spec{Protocol: Timestamp, N: 10, T: 4, Lambda: 0.5, K: 5, Attack: AttackFlip}, 30,
			func(t *testing.T, v verdicts) {
				if v.Validity == v.Trials {
					t.Error("flip attack had no effect; wiring broken?")
				}
			}},
		// An async blackout breaks DAG validity under the private chain.
		{"stall", Spec{Protocol: Dag, N: 10, T: 4, Lambda: 1, K: 41, Attack: AttackPrivateChain, StallAtSize: 30, StallFor: 6}, 15,
			func(t *testing.T, v verdicts) {
				if v.Validity > 7 {
					t.Errorf("blackout barely hurt DAG validity: %d/15 valid", v.Validity)
				}
			}},
		// Fresh reads restore chain validity under the tie-break attack at
		// a rate where stale views collapse.
		{"fresh-reads", Spec{Protocol: Chain, N: 10, T: 4, Lambda: 1, K: 21, Attack: AttackTieBreak, FreshReads: true}, 15,
			func(t *testing.T, fresh verdicts) {
				stale := runVerdicts(t, Spec{Protocol: Chain, N: 10, T: 4, Lambda: 1, K: 21, Attack: AttackTieBreak}, 15)
				if fresh.Validity <= stale.Validity {
					t.Errorf("fresh reads did not help: stale %d vs fresh %d", stale.Validity, fresh.Validity)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := runVerdicts(t, tc.spec, tc.trials)
			if v.Trials != tc.trials {
				t.Fatalf("trials = %d", v.Trials)
			}
			if v.OK > v.Trials || v.OK > v.Agreement || v.OK > v.Validity || v.OK > v.Termination ||
				v.Agreement > v.Trials || v.Validity > v.Trials || v.Termination > v.Trials {
				t.Fatalf("inconsistent verdicts %+v", v)
			}
			if tc.check != nil {
				tc.check(t, v)
			}
		})
	}

	if _, err := RunSpec(Spec{Protocol: "nope", N: 1}, Options{}); err == nil {
		t.Fatal("RunSpec accepted a bad spec")
	}
}

func TestRandomInputsDeterministicPerSeed(t *testing.T) {
	b := MustBind(Spec{Protocol: Chain, N: 8, T: 1, Lambda: 1, K: 7, Inputs: "random"})
	a1, a2 := b.inputs(9), b.inputs(9)
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("random inputs not deterministic per seed")
	}
	if reflect.DeepEqual(b.inputs(1), b.inputs(2)) {
		t.Fatal("random inputs identical across seeds (suspicious)")
	}
}

// TestBindBoundedValidation: the windowed/checkpoint knobs must fail at
// bind time with errors naming the conflict, never trials in.
func TestBindBoundedValidation(t *testing.T) {
	ok := Spec{Protocol: Dag, N: 6, T: 2, Lambda: 1, K: 15, Window: 64, Attack: AttackFlip}
	if _, err := Bind(ok); err != nil {
		t.Fatalf("valid windowed spec rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"negative", func(s *Spec) { s.Window = -1 }, "window must be >= 0"},
		{"below lookback", func(s *Spec) { s.Window = 16; s.Confirm = 4 }, "k+confirm = 15+4 = 19"},
		{"wrong protocol", func(s *Spec) { s.Protocol = Timestamp }, "chain/dag"},
		{"attack", func(s *Spec) { s.Attack = AttackPrivateChain }, "silent/flip"},
		{"topology", func(s *Spec) { s.Topology = TopoRing }, "complete topology"},
		{"stall", func(s *Spec) { s.StallAtSize = 10 }, "stall_at"},
		{"async", func(s *Spec) { s.AsyncDelayMax = 2 }, "async_delay_max"},
		{"both modes", func(s *Spec) { s.Checkpoint = true }, "mutually exclusive"},
		{"checkpoint attack", func(s *Spec) { s.Window = 0; s.Checkpoint = true; s.Attack = AttackLastMinute }, "adversary state is not checkpointed"},
	}
	for _, tc := range cases {
		s := ok
		tc.mut(&s)
		_, err := Bind(s)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
	// The window-below-lookback error must name both sides of the conflict.
	s := ok
	s.Window = 16
	s.Confirm = 4
	_, err := Bind(s)
	if err == nil || !strings.Contains(err.Error(), "window 16") {
		t.Errorf("lookback error does not name the window: %v", err)
	}
}

// TestOrderMetricsRejectWindow: metrics that rebuild the full chain/dag
// from the final view cannot run over a windowed (prefix-retired) memory.
func TestOrderMetricsRejectWindow(t *testing.T) {
	b, err := Bind(Spec{Protocol: Dag, N: 6, T: 2, Lambda: 1, K: 15, Window: 64, Attack: AttackFlip})
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	for _, name := range []string{"max-byz-run", "byz-prefix-share"} {
		def, ok := Metrics.Lookup(name)
		if !ok {
			t.Fatalf("metric %q not registered", name)
		}
		if _, err := def.Bind(b); err == nil || !strings.Contains(err.Error(), "window") {
			t.Errorf("%s: want window rejection, got %v", name, err)
		}
	}
}

// TestBindRejectsNonFinite covers every real-valued parameter with NaN and
// ±Inf. The range checks compare, and a NaN fails no comparison, so before
// checkFinite a NaN lambda or delta bound and ran every trial to "ok 0",
// and an infinite delta panicked a trial on a zero token rate. JSON cannot
// carry these values, so FuzzParseSpecBind never reaches them.
func TestBindRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*Spec, float64)
	}{
		{"lambda", func(s *Spec, v float64) { s.Lambda = v }},
		{"rates[2]", func(s *Spec, v float64) { s.Rates = []float64{1, 1, v, 1, 1, 1, 1, 1} }},
		{"delta", func(s *Spec, v float64) { s.Delta = v }},
		{"link_delay", func(s *Spec, v float64) { s.LinkDelay = v; s.Topology = TopoRing }},
		{"link_jitter", func(s *Spec, v float64) { s.LinkJitter = v; s.Topology = TopoRing }},
		{"stall_for", func(s *Spec, v float64) { s.StallFor = v; s.StallAtSize = 5 }},
		{"async_delay_max", func(s *Spec, v float64) { s.AsyncDelayMax = v }},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			spec := Spec{Protocol: Dag, N: 8, T: 2, Lambda: 1, K: 11}
			f.set(&spec, v)
			_, err := Bind(spec)
			if err == nil {
				t.Errorf("%s=%v: Bind accepted it", f.name, v)
				continue
			}
			if want := f.name + " must be finite"; !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%v: error %q does not say %q", f.name, v, err, want)
			}
		}
	}
}
