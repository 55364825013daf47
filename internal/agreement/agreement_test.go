package agreement

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// countRule is a trivial HonestRule: append the input with no references,
// decide +1 once the view holds k messages. Exercises the runner mechanics
// without protocol logic.
type countRule struct{}

func (countRule) Append(_ appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	w.MustAppend(input, 0, nil)
}

func (countRule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	if view.Size() < k {
		return 0, false
	}
	return 1, true
}

func TestRunnerBasic(t *testing.T) {
	r, err := RunRandomized(RandomizedConfig{N: 5, Lambda: 1, K: 11, Seed: 1}, countRule{}, Silent{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Verdict.OK() {
		t.Fatalf("verdict = %+v", r.Verdict)
	}
	if r.TotalAppends < 11 {
		t.Fatalf("appends = %d, want >= 11", r.TotalAppends)
	}
	if r.ByzAppends != 0 {
		t.Fatalf("byz appends = %d with t=0", r.ByzAppends)
	}
	for _, id := range r.Roster.Correct() {
		if r.DecideTime[id] <= 0 {
			t.Fatalf("node %d has no decide time", id)
		}
	}
}

func TestRunnerConfigValidation(t *testing.T) {
	bad := []RandomizedConfig{
		{N: 0, Lambda: 1, K: 1},
		{N: 3, T: 3, Lambda: 1, K: 1}, // t must be < n
		{N: 3, T: -1, Lambda: 1, K: 1},
		{N: 3, Lambda: 0, K: 1},
		{N: 3, Lambda: 1, K: 0},
		{N: 3, Lambda: 1, K: 1, Inputs: node.AllSame(2, 1)}, // wrong input length
	}
	for i, cfg := range bad {
		if _, err := RunRandomized(cfg, countRule{}, Silent{}); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRunnerDeterminism(t *testing.T) {
	run := func() *Result {
		r, err := RunRandomized(RandomizedConfig{N: 6, T: 2, Lambda: 0.7, K: 15, Seed: 99}, countRule{}, &ValueFlip{Rule: countRule{}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.TotalAppends != b.TotalAppends || a.Grants != b.Grants || a.Duration != b.Duration {
		t.Fatalf("nondeterministic: %d/%d/%v vs %d/%d/%v",
			a.TotalAppends, a.Grants, a.Duration, b.TotalAppends, b.Grants, b.Duration)
	}
	for i := range a.DecideTime {
		if a.DecideTime[i] != b.DecideTime[i] {
			t.Fatalf("decide time %d differs", i)
		}
	}
	am, bm := a.FinalView.Messages(), b.FinalView.Messages()
	for i := range am {
		if am[i].Author != bm[i].Author || am[i].Value != bm[i].Value {
			t.Fatalf("memory content differs at %d", i)
		}
	}
}

func TestRunnerSeedsDiffer(t *testing.T) {
	mk := func(seed uint64) *Result {
		return MustRun(RandomizedConfig{N: 6, Lambda: 0.7, K: 15, Seed: seed}, countRule{}, Silent{})
	}
	if mk(1).Duration == mk(2).Duration {
		t.Fatal("different seeds gave identical durations (suspicious)")
	}
}

func TestRunnerByzantineAppendsCounted(t *testing.T) {
	r := MustRun(RandomizedConfig{N: 6, T: 2, Lambda: 1, K: 21, Seed: 3}, countRule{}, &ValueFlip{Rule: countRule{}})
	if r.ByzAppends == 0 {
		t.Fatal("ValueFlip adversary appended nothing")
	}
	if r.CorrectAppends+r.ByzAppends != r.TotalAppends {
		t.Fatal("append accounting inconsistent")
	}
	// ByzAppends should be roughly t/n of the total.
	frac := float64(r.ByzAppends) / float64(r.TotalAppends)
	if frac < 0.1 || frac > 0.6 {
		t.Fatalf("byz append fraction = %v, expected near 1/3", frac)
	}
}

func TestRunnerSilentAdversary(t *testing.T) {
	r := MustRun(RandomizedConfig{N: 6, T: 2, Lambda: 1, K: 11, Seed: 4}, countRule{}, Silent{})
	if r.ByzAppends != 0 {
		t.Fatalf("Silent adversary appended %d times", r.ByzAppends)
	}
	if !r.Verdict.OK() {
		t.Fatalf("verdict = %+v", r.Verdict)
	}
}

func TestRunnerCrashes(t *testing.T) {
	r := MustRun(RandomizedConfig{N: 8, Crashes: 3, Lambda: 1, K: 11, Seed: 5}, countRule{}, Silent{})
	if !r.Verdict.OK() {
		t.Fatalf("crashes broke consensus for the survivors: %+v", r.Verdict)
	}
	if len(r.Roster.Correct()) != 5 {
		t.Fatalf("correct = %d, want 5", len(r.Roster.Correct()))
	}
}

func TestRunnerHorizonTerminates(t *testing.T) {
	// All correct nodes crash immediately-ish and the adversary is silent:
	// nothing ever decides, yet the run must end (hard horizon).
	r := MustRun(RandomizedConfig{N: 3, Crashes: 3, Lambda: 0.5, K: 1000, Seed: 6}, countRule{}, Silent{})
	if len(r.Roster.Correct()) != 0 {
		t.Fatal("expected all correct nodes crashed")
	}
	_ = r // reaching here is the assertion
}

// neverRule appends like countRule but never decides.
type neverRule struct{ countRule }

func (neverRule) Decide(appendmem.View, int, *xrand.PCG) (int64, bool) { return 0, false }

func TestRunnerMaxAppendsAborts(t *testing.T) {
	// Nobody ever decides: the run must end at the append cap of
	// 64·(K+N) messages, well before the hard horizon, with termination
	// failed.
	cfg := RandomizedConfig{N: 4, Lambda: 2, K: 1, Seed: 7}
	r := MustRun(cfg, neverRule{}, Silent{})
	if r.Verdict.Termination {
		t.Fatal("termination verdict true despite abort")
	}
	if want := 64 * (cfg.K + cfg.N); r.TotalAppends != want {
		t.Fatalf("aborted at %d appends, want the cap %d", r.TotalAppends, want)
	}
	if horizon := 64*2*float64(cfg.K)/(cfg.Lambda*float64(cfg.N)) + 64; float64(r.Duration) >= horizon {
		t.Fatalf("run lasted %v, reaching the horizon %v instead of the cap", r.Duration, horizon)
	}
}

func TestEnvWriterGuards(t *testing.T) {
	var captured *Env
	grab := adversaryFunc{
		init: func(e *Env) { captured = e },
	}
	MustRun(RandomizedConfig{N: 4, T: 1, Lambda: 1, K: 5, Seed: 8}, countRule{}, grab)
	if captured == nil {
		t.Fatal("Init not called")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("adversary obtained an honest writer")
		}
	}()
	captured.Writer(0) // node 0 is honest
}

// adversaryFunc adapts closures to the Adversary interface.
type adversaryFunc struct {
	init    func(*Env)
	onGrant func(access.Grant)
}

func (a adversaryFunc) Init(e *Env) {
	if a.init != nil {
		a.init(e)
	}
}

func (a adversaryFunc) OnGrant(g access.Grant) {
	if a.onGrant != nil {
		a.onGrant(g)
	}
}

// tipRule appends referencing the newest message in the node's view; used
// to observe how stale the runner's honest views are.
type tipRule struct{}

func (tipRule) Append(view appendmem.View, w *appendmem.Writer, input int64, _ *xrand.PCG) {
	tip := appendmem.None
	if view.Size() > 0 {
		tip = appendmem.MsgID(view.Size() - 1)
	}
	w.MustAppend(input, 0, []appendmem.MsgID{tip})
}

func (tipRule) Decide(view appendmem.View, k int, _ *xrand.PCG) (int64, bool) {
	if view.Size() < k {
		return 0, false
	}
	return 1, true
}

func TestHonestViewsAreStale(t *testing.T) {
	// The synchrony bound Δ must make honest appends reference views up to
	// Δ old (the fork source of Theorem 5.4). With λ=4 the memory receives
	// ~32 appends per Δ, so an honest append referencing the latest message
	// it saw must frequently miss recent appends: Parents[0] < ID-1.
	r := MustRun(RandomizedConfig{N: 8, Lambda: 4, K: 201, Seed: 11}, tipRule{}, Silent{})
	stale := 0
	total := 0
	for _, msg := range r.FinalView.Messages() {
		if len(msg.Parents) == 0 || msg.Parents[0] == appendmem.None {
			continue
		}
		total++
		if msg.Parents[0] < msg.ID-1 {
			stale++
		}
	}
	if total == 0 {
		t.Fatal("no parented appends")
	}
	if frac := float64(stale) / float64(total); frac < 0.5 {
		t.Fatalf("stale-reference fraction = %v; staleness not modelled", frac)
	}
}

func TestFreshHonestReadsRemoveStaleness(t *testing.T) {
	// With FreshHonestReads, a tipRule append always references the
	// immediately preceding message: no stale parents at all.
	r := MustRun(RandomizedConfig{N: 8, Lambda: 4, K: 101, Seed: 12, FreshHonestReads: true}, tipRule{}, Silent{})
	for _, msg := range r.FinalView.Messages() {
		if len(msg.Parents) == 0 || msg.Parents[0] == appendmem.None {
			continue
		}
		if msg.Parents[0] != msg.ID-1 {
			t.Fatalf("fresh read still produced a stale parent: %d -> %d", msg.ID, msg.Parents[0])
		}
	}
}

func TestStallDelaysDecisions(t *testing.T) {
	base := MustRun(RandomizedConfig{N: 6, Lambda: 1, K: 21, Seed: 13}, countRule{}, Silent{})
	stalled := MustRun(RandomizedConfig{N: 6, Lambda: 1, K: 21, Seed: 13, StallAtSize: 10, StallFor: 6}, countRule{}, Silent{})
	if !stalled.Verdict.Termination {
		t.Fatalf("stall broke termination: %+v", stalled.Verdict)
	}
	if stalled.Duration <= base.Duration {
		t.Fatalf("stall did not delay the run: %v vs %v", stalled.Duration, base.Duration)
	}
}

func TestStallDefaults(t *testing.T) {
	cfg := RandomizedConfig{N: 4, Lambda: 1, K: 5, StallAtSize: 3}
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	if cfg.StallFor != 8 {
		t.Fatalf("default StallFor = %v, want 8", cfg.StallFor)
	}
}

func TestTraceRecordsRun(t *testing.T) {
	rec := trace.New()
	r := MustRun(RandomizedConfig{N: 6, T: 2, Lambda: 1, K: 11, Seed: 21, Trace: rec},
		countRule{}, &ValueFlip{Rule: countRule{}})
	sum := rec.Summary()
	if sum[trace.Grant] != r.Grants {
		t.Fatalf("traced %d grants, result says %d", sum[trace.Grant], r.Grants)
	}
	if sum[trace.Append] != r.TotalAppends {
		t.Fatalf("traced %d appends, memory has %d", sum[trace.Append], r.TotalAppends)
	}
	if sum[trace.Decide] == 0 || sum[trace.Read] == 0 {
		t.Fatalf("missing reads/decisions: %v", sum)
	}
	// Byzantine appends are annotated.
	byzNoted := 0
	for _, e := range rec.Events() {
		if e.Kind == trace.Append && e.Note == "byzantine" {
			byzNoted++
		}
	}
	if byzNoted != r.ByzAppends {
		t.Fatalf("byzantine annotations %d, byz appends %d", byzNoted, r.ByzAppends)
	}
}

func TestTraceReplayIdentical(t *testing.T) {
	run := func() *trace.Recorder {
		rec := trace.New()
		MustRun(RandomizedConfig{N: 6, T: 2, Lambda: 1, K: 11, Seed: 22, Trace: rec},
			countRule{}, &ValueFlip{Rule: countRule{}})
		return rec
	}
	if !trace.Equal(run(), run()) {
		t.Fatal("identical runs produced different traces")
	}
}

func TestTraceRecordsStallAndCrash(t *testing.T) {
	rec := trace.New()
	MustRun(RandomizedConfig{N: 6, Crashes: 2, Lambda: 1, K: 21, Seed: 23,
		StallAtSize: 8, StallFor: 2, Trace: rec}, countRule{}, Silent{})
	sum := rec.Summary()
	if sum[trace.StallStart] != 1 {
		t.Fatalf("stall-start events: %d", sum[trace.StallStart])
	}
	if sum[trace.Crash] == 0 {
		t.Fatalf("no crash events recorded")
	}
}

// knobRule appends referencing the newest message of the view it is
// handed, so the message stream records which view the harness passed each
// append (stale, fresh, or held over an async delay), and decides once its
// view holds k+confirm messages. Per-node instances track the smallest id
// their future appends can reference, so the rule also runs windowed.
type knobRule struct {
	confirm int
	floor   *int // per-node instance state; nil on the shared prototype
}

func (r knobRule) NewNodeRule() HonestRule { return knobRule{confirm: r.confirm, floor: new(int)} }

func (r knobRule) see(view appendmem.View) {
	if r.floor != nil && view.Size()-1 > *r.floor {
		*r.floor = view.Size() - 1
	}
}

func (r knobRule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	r.see(view)
	tipRule{}.Append(view, w, input, rng)
}

func (r knobRule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	r.see(view)
	return tipRule{}.Decide(view, k+r.confirm, rng)
}

func (r knobRule) ViewFloor() int      { return *r.floor }
func (r knobRule) CompactTo(w int) int { return w }

// drawKnobs draws one random valid combination of the harness knobs:
// access discipline, rates, crashes and fresh reads, plus either a window
// or a topology, stalls and async delays.
func drawKnobs(rng *xrand.PCG) RandomizedConfig {
	cfg := RandomizedConfig{
		N:                4 + rng.Intn(8),
		Lambda:           0.1 + rng.Float64(),
		K:                5 + 2*rng.Intn(10),
		Seed:             rng.Uint64(),
		FreshHonestReads: rng.Bool(),
		RoundRobinAccess: rng.Bool(),
	}
	cfg.T = rng.Intn(cfg.N / 2)
	if rng.Bool() {
		cfg.Crashes = rng.Intn(cfg.N - cfg.T)
	}
	if rng.Bool() {
		cfg.Rates = make([]float64, cfg.N)
		for i := range cfg.Rates {
			cfg.Rates[i] = 0.05 + rng.Float64()
		}
	}
	switch rng.Intn(3) {
	case 0: // windowed memory runs only under the default timing model
		cfg.Window = 4 + rng.Intn(12)
		return cfg
	case 1:
		cfg.Topology = topology.Ring(cfg.N, 1, 0.2+rng.Float64())
		if cfg.N >= 5 && rng.Bool() {
			if g := topology.WattsStrogatz(rng, cfg.N, 2, 0.3, 0.2+rng.Float64()); g.Connected() {
				cfg.Topology = g
			}
		}
		cfg.TopologyDelay = topology.DelayModel{Kind: topology.DelayKind(rng.Intn(3)), Jitter: rng.Float64() / 2}
	}
	if rng.Bool() {
		cfg.StallAtSize = 1 + rng.Intn(cfg.K)
		cfg.StallFor = 1 + rng.Float64()*4
	}
	if rng.Bool() {
		cfg.AsyncDelayMax = rng.Float64() * 4
	}
	return cfg
}

// knobPrint renders every observable of a run: the verdict and counts,
// each node's decision, time and view size, and every live message with
// its parents (which pin the view each append was made against).
func knobPrint(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "verdict=%+v grants=%d appends=%d/%d/%d dur=%v lag=%v hw=%d\n",
		r.Verdict, r.Grants, r.TotalAppends, r.CorrectAppends, r.ByzAppends,
		float64(r.Duration), r.VisMeanLag, r.MemHighWater)
	for i := range r.DecideTime {
		fmt.Fprintf(&b, "node %d decided=%v value=%d at=%v view=%d\n", i,
			r.Outcome.Decided[i], r.Outcome.Decision[i], float64(r.DecideTime[i]), r.DecideViewSize[i])
	}
	for id := r.Mem.Watermark(); id < r.Mem.Len(); id++ {
		m := r.Mem.Message(appendmem.MsgID(id))
		fmt.Fprintf(&b, "msg %d author=%d seq=%d value=%d parents=%v\n", id, m.Author, m.Seq, m.Value, m.Parents)
	}
	return b.String()
}

// knobLine is one golden line: a digest of the run's full print plus the
// headline counts, so a mismatch shows at a glance which trial moved.
func knobLine(label string, r *Result) string {
	sum := sha256.Sum256([]byte(knobPrint(r)))
	return fmt.Sprintf("%s grants=%d appends=%d dur=%v sha256=%x", label, r.Grants, r.TotalAppends, float64(r.Duration), sum[:12])
}

var updateKnobs = flag.Bool("update", false, "rewrite testdata/knobs.golden")

// Catch-all determinism property: for random combinations of every config
// knob, two traced runs with the same seed produce identical traces, the
// untraced run produces the same Result as the traced one, and every
// Result matches the committed golden. Checkpointed trials (with crashes)
// additionally resume a deeper-confirming rule from a shallower run's
// checkpoint and must reproduce its from-scratch Result.
func TestDeterminismAcrossAllKnobs(t *testing.T) {
	metaRng := xrand.New(0xDE7, 1)
	var lines []string
	for trial := 0; trial < 40; trial++ {
		cfg := drawKnobs(metaRng)
		run := func(rec *trace.Recorder) *Result {
			c := cfg
			c.Trace = rec
			return MustRun(c, knobRule{}, &ValueFlip{Rule: knobRule{}})
		}
		recA, recB := trace.New(), trace.New()
		a := run(recA)
		run(recB)
		if !trace.Equal(recA, recB) {
			t.Fatalf("trial %d: nondeterministic under %+v", trial, cfg)
		}
		if recA.Len() == 0 {
			t.Fatalf("trial %d: empty trace", trial)
		}
		if got, want := knobPrint(run(nil)), knobPrint(a); got != want {
			t.Fatalf("trial %d: tracing changed the run under %+v:\ntraced:\n%s\nuntraced:\n%s", trial, cfg, want, got)
		}
		lines = append(lines, knobLine(fmt.Sprintf("trial %02d", trial), a))
	}
	for trial := 0; trial < 8; trial++ {
		cfg := drawKnobs(metaRng)
		cfg.Rates, cfg.Topology, cfg.StallAtSize, cfg.AsyncDelayMax, cfg.Window = nil, nil, 0, 0, 0
		cfg.Crashes = 1 + metaRng.Intn(cfg.N-cfg.T-1)
		var cp *Checkpoint
		capCfg := cfg
		capCfg.CheckpointSink = func(c *Checkpoint) { cp = c }
		shallow := MustRun(capCfg, knobRule{}, &ValueFlip{Rule: knobRule{}})
		deep := knobRule{confirm: 2}
		scratch := MustRun(cfg, deep, &ValueFlip{Rule: deep})
		if cp == nil {
			t.Fatalf("checkpoint trial %d: no decision, nothing captured under %+v", trial, cfg)
		}
		resCfg := cfg
		resCfg.ResumeFrom = cp
		resumed := MustRun(resCfg, deep, &ValueFlip{Rule: deep})
		if got, want := knobPrint(resumed), knobPrint(scratch); got != want {
			t.Fatalf("checkpoint trial %d: resume diverged under %+v:\nscratch:\n%s\nresumed:\n%s", trial, cfg, want, got)
		}
		lines = append(lines,
			knobLine(fmt.Sprintf("checkpoint %02d capture", trial), shallow),
			knobLine(fmt.Sprintf("checkpoint %02d resume", trial), resumed))
	}
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/knobs.golden"
	if *updateKnobs {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wl := strings.Split(string(want), "\n")
	for i, l := range strings.Split(got, "\n") {
		if i >= len(wl) || wl[i] != l {
			t.Fatalf("%s line %d:\nwant %q\ngot  %q", golden, i+1, wl[min(i, len(wl)-1)], l)
		}
	}
	if len(wl) != len(strings.Split(got, "\n")) {
		t.Fatalf("%s has %d lines, run produced %d", golden, len(wl), len(strings.Split(got, "\n")))
	}
}

func TestRatesConfig(t *testing.T) {
	// Heterogeneous rates: the whale should author far more appends.
	r := MustRun(RandomizedConfig{
		N: 4, Rates: []float64{2.0, 0.1, 0.1, 0.1}, K: 41, Seed: 31,
	}, countRule{}, Silent{})
	counts := make(map[appendmem.NodeID]int)
	for _, msg := range r.FinalView.Messages() {
		counts[msg.Author]++
	}
	if counts[0] < 3*counts[1] {
		t.Fatalf("whale not dominant: %v", counts)
	}
	if !r.Verdict.OK() {
		t.Fatalf("%+v", r.Verdict)
	}
}

func TestRatesValidation(t *testing.T) {
	bad := []RandomizedConfig{
		{N: 3, Rates: []float64{1, 1}, K: 5},
		{N: 2, Rates: []float64{1, 0}, K: 5},
		{N: 2, Rates: []float64{1, -1}, K: 5},
	}
	for i, cfg := range bad {
		if _, err := RunRandomized(cfg, countRule{}, Silent{}); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// TestConfigRejectsNonFinite: every real-valued knob is checked for NaN and
// ±Inf before the range checks, none of which a NaN fails.
func TestConfigRejectsNonFinite(t *testing.T) {
	fields := []struct {
		name string
		set  func(*RandomizedConfig, float64)
	}{
		{"Lambda", func(c *RandomizedConfig, v float64) { c.Lambda = v }},
		{"Rates[1]", func(c *RandomizedConfig, v float64) { c.Rates = []float64{1, v, 1} }},
		{"Delta", func(c *RandomizedConfig, v float64) { c.Delta = v }},
		{"StallFor", func(c *RandomizedConfig, v float64) { c.StallFor = v; c.StallAtSize = 5 }},
		{"AsyncDelayMax", func(c *RandomizedConfig, v float64) { c.AsyncDelayMax = v }},
		{"TopologyDelay.Jitter", func(c *RandomizedConfig, v float64) {
			c.Topology = topology.Ring(3, 1, 0.5)
			c.TopologyDelay.Jitter = v
		}},
	}
	for _, f := range fields {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := RandomizedConfig{N: 3, Lambda: 1, K: 5}
			f.set(&cfg, v)
			_, err := RunRandomized(cfg, countRule{}, Silent{})
			if err == nil {
				t.Errorf("%s=%v: config accepted", f.name, v)
				continue
			}
			if want := f.name + " must be finite"; !strings.Contains(err.Error(), want) {
				t.Errorf("%s=%v: error %q does not say %q", f.name, v, err, want)
			}
		}
	}
}
