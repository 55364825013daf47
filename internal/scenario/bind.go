package scenario

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/agreement"
	"repro/internal/agreement/syncba"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Result is the uniform outcome of one run, across the synchronous and
// the randomized harnesses.
type Result struct {
	Verdict  node.Verdict
	Decision []int64 // per node; meaningful where Decided
	Decided  []bool
	Roster   node.Roster
	Inputs   node.Inputs

	TotalAppends int
	ByzAppends   int // randomized runs only
	Grants       int // randomized runs only
	Duration     sim.Time
	FinalView    appendmem.View
	HasView      bool

	// DecideTime[i] is when correct node i decided (randomized runs only;
	// zero when undecided or for sync runs).
	DecideTime []sim.Time

	// VisMeanLag is the mean append-propagation lag over the topology
	// (randomized runs with a non-complete topology; zero otherwise).
	VisMeanLag float64

	// MemHighWater is the peak live-message count over the run — equal to
	// TotalAppends for an unbounded memory, bounded near the spec's Window
	// in windowed mode (randomized runs only).
	MemHighWater int

	// Mem and DecideViewSize reconstruct each node's exact decision view
	// (Mem.ViewAt(DecideViewSize[i])) for the invariant checks; randomized
	// runs only, nil for sync.
	Mem            *appendmem.Memory
	DecideViewSize []int
}

// Bound is a spec resolved against the registries: the honest rule, the
// adversary factory and the input schedule are closures, so per-trial
// execution performs no registry or string lookups. A Bound is safe for
// concurrent use — trial fan-outs call Randomized/Sync/Run from many
// goroutines.
type Bound struct {
	spec Spec
	sync bool

	rule    agreement.HonestRule          // randomized protocols
	newAdv  func() agreement.Adversary    // fresh instance per run
	newSync func() syncba.Adversary       // sync protocol
	access  AccessDef                     // randomized protocols
	inputs  func(seed uint64) node.Inputs // fresh slice per run

	topo      *topology.Graph     // nil on the complete (oracle) path
	topoDelay topology.DelayModel // per-link delay model (topo != nil)
	routes    *topology.Routes    // shared route plane over topo (topo != nil)
}

// Spec returns the spec the binding was resolved from.
func (b *Bound) Spec() Spec { return b.spec }

// IsSync reports whether the scenario runs on the synchronous-round
// harness.
func (b *Bound) IsSync() bool { return b.sync }

// Routes returns the binding's shared route plane — per-source
// shortest-path trees over the bound topology, computed at most once per
// graph and safe to share read-only across trials and workers. Nil when
// the scenario runs on the complete (oracle) path.
func (b *Bound) Routes() *topology.Routes { return b.routes }

// parseInputs validates an input spec and returns its per-seed resolver.
// The "random" form draws from a seed-derived stream (the same one the
// amrun CLI always used), so random-input trials stay deterministic per
// seed.
func parseInputs(spec string, n int) (func(seed uint64) node.Inputs, error) {
	switch {
	case spec == "" || spec == "same":
		return func(uint64) node.Inputs { return node.AllSame(n, +1) }, nil
	case spec == "same:-1":
		return func(uint64) node.Inputs { return node.AllSame(n, -1) }, nil
	case strings.HasPrefix(spec, "split:"):
		var ones int
		if _, err := fmt.Sscanf(spec, "split:%d", &ones); err != nil || ones < 0 || ones > n {
			return nil, fmt.Errorf("scenario: bad input spec %q for n=%d", spec, n)
		}
		return func(uint64) node.Inputs { return node.SplitInputs(n, ones) }, nil
	case spec == "random":
		return func(seed uint64) node.Inputs {
			return node.RandomInputs(xrand.New(seed, 0xC0DE), n)
		}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown input spec %q (want same, same:-1, split:<ones> or random)", spec)
	}
}

// Bind resolves a spec against the registries. All validation that does
// not depend on the seed happens here, so the returned Bound's run
// methods cannot fail on configuration.
func Bind(spec Spec) (*Bound, error) {
	p, ok := Protocols.Lookup(string(spec.Protocol))
	if !ok {
		return nil, fmt.Errorf("scenario: unknown protocol %q (have %s)", spec.Protocol, Protocols.Help())
	}
	if spec.N <= 0 || spec.T < 0 || spec.T >= spec.N {
		return nil, fmt.Errorf("scenario: invalid roster n=%d t=%d", spec.N, spec.T)
	}
	if spec.Crashes < 0 || spec.T+spec.Crashes > spec.N {
		return nil, fmt.Errorf("scenario: %d crashes do not fit n=%d t=%d", spec.Crashes, spec.N, spec.T)
	}
	if err := checkFinite(&spec); err != nil {
		return nil, err
	}
	inputs, err := parseInputs(spec.Inputs, spec.N)
	if err != nil {
		return nil, err
	}

	attackName := spec.Attack
	if attackName == "" {
		attackName = AttackSilent
	}
	att, ok := Attacks.Lookup(string(attackName))
	if !ok {
		return nil, fmt.Errorf("scenario: unknown attack %q (have %s)", attackName, Attacks.Help())
	}
	if len(spec.AttackParams) > 0 && att.Schema == nil {
		return nil, fmt.Errorf("scenario: attack %q takes no parameters (parameterized attacks: %s)",
			attackName, strings.Join(ParameterizedAttacks(), " | "))
	}

	b := &Bound{spec: spec, sync: p.Sync, inputs: inputs}
	if p.Sync {
		if att.NewSync == nil {
			return nil, fmt.Errorf("scenario: attack %q not valid for protocol sync (have %s)",
				attackName, strings.Join(SyncAttacks(), " | "))
		}
		if spec.Access != "" && spec.Access != AccessPoisson {
			return nil, fmt.Errorf("scenario: access model %q applies to randomized protocols only", spec.Access)
		}
		if spec.Topology != "" && spec.Topology != TopoComplete {
			return nil, fmt.Errorf("scenario: topology %q applies to randomized protocols only", spec.Topology)
		}
		b.newSync, err = att.NewSync(&spec)
		if err != nil {
			return nil, err
		}
		return b, nil
	}

	if spec.Rates != nil {
		if len(spec.Rates) != spec.N {
			return nil, fmt.Errorf("scenario: %d rates for %d nodes", len(spec.Rates), spec.N)
		}
		for _, r := range spec.Rates {
			if r <= 0 {
				return nil, fmt.Errorf("scenario: non-positive per-node rate %v", r)
			}
		}
	} else if spec.Lambda <= 0 {
		return nil, fmt.Errorf("scenario: protocol %q needs lambda > 0 (or per-node rates)", spec.Protocol)
	}
	if spec.K <= 0 {
		return nil, fmt.Errorf("scenario: protocol %q needs k > 0", spec.Protocol)
	}
	b.rule, err = p.Rule(&spec)
	if err != nil {
		return nil, err
	}
	if att.New == nil || !att.appliesTo(spec.Protocol) {
		return nil, fmt.Errorf("scenario: attack %q not valid for protocol %q (have %s)",
			attackName, spec.Protocol, strings.Join(AttacksFor(spec.Protocol), " | "))
	}
	b.newAdv, err = att.New(&spec, b.rule)
	if err != nil {
		return nil, err
	}
	accessName := spec.Access
	if accessName == "" {
		accessName = AccessPoisson
	}
	b.access, ok = AccessModels.Lookup(string(accessName))
	if !ok {
		return nil, fmt.Errorf("scenario: unknown access model %q (have %s)", accessName, AccessModels.Help())
	}
	if spec.Rates != nil && accessName != AccessPoisson {
		return nil, fmt.Errorf("scenario: access model %q does not combine with per-node rates (rates imply weighted Poisson access)", accessName)
	}
	if err := b.bindTopology(); err != nil {
		return nil, err
	}
	if err := b.bindBounded(); err != nil {
		return nil, err
	}
	return b, nil
}

// checkFinite rejects NaN and ±Inf in the spec's real-valued parameters.
// The range checks after it cannot: every comparison with NaN is false, and
// an infinite rate or bound turns into a zero or infinite simulator time.
func checkFinite(spec *Spec) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"lambda", spec.Lambda},
		{"delta", spec.Delta},
		{"link_delay", spec.LinkDelay},
		{"link_jitter", spec.LinkJitter},
		{"stall_for", spec.StallFor},
		{"async_delay_max", spec.AsyncDelayMax},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s must be finite, got %v", f.name, f.v)
		}
	}
	for i, r := range spec.Rates {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("scenario: rates[%d] must be finite, got %v", i, r)
		}
	}
	return nil
}

// bindBounded validates the windowed-memory and checkpointing knobs
// eagerly, so a sweep cannot fail (or silently disable a mode) trials in.
func (b *Bound) bindBounded() error {
	s := &b.spec
	if s.Window < 0 {
		return fmt.Errorf("scenario: window must be >= 0, got %d", s.Window)
	}
	if s.Window == 0 && !s.Checkpoint {
		return nil
	}
	if s.Window > 0 && s.Checkpoint {
		return fmt.Errorf("scenario: window and checkpoint are mutually exclusive (a windowed memory cannot be snapshotted)")
	}
	if s.Protocol != Chain && s.Protocol != Dag {
		return fmt.Errorf("scenario: window/checkpoint apply to chain/dag protocols only, not %q", s.Protocol)
	}
	switch {
	case b.topo != nil:
		return fmt.Errorf("scenario: window/checkpoint require the complete topology, not %q", s.Topology)
	case s.AsyncDelayMax > 0:
		return fmt.Errorf("scenario: window/checkpoint are incompatible with async_delay_max")
	case s.StallAtSize > 0:
		return fmt.Errorf("scenario: window/checkpoint are incompatible with stall_at")
	}
	if s.Window > 0 {
		if lookback := s.K + s.Confirm; s.Window < lookback {
			return fmt.Errorf("scenario: window %d is smaller than the decision lookback k+confirm = %d+%d = %d",
				s.Window, s.K, s.Confirm, lookback)
		}
		if _, ok := b.rule.(agreement.WindowedRule); !ok {
			return fmt.Errorf("scenario: protocol %q cannot bound its reachable prefix", s.Protocol)
		}
		if s.T > 0 {
			if _, ok := b.newAdv().(agreement.WindowedAdversary); !ok {
				return fmt.Errorf("scenario: attack %q cannot bound its reachable prefix; window supports silent/flip", s.Attack)
			}
		}
	}
	if s.Checkpoint {
		// A resumed run re-creates the adversary from scratch; only
		// adversaries fully determined by (fresh view, rng cursor) replay
		// correctly. The private-chain family carries hidden per-run state
		// the checkpoint does not capture.
		if a := s.Attack; a != "" && a != AttackSilent && a != AttackFlip {
			return fmt.Errorf("scenario: checkpoint supports attacks silent/flip only, not %q (adversary state is not checkpointed)", a)
		}
	}
	return nil
}

// bindTopology resolves the spec's topology and delay-model fields. The
// complete topology (the default) binds to a nil graph: the harness then
// takes the original Δ-bounded oracle path, byte-for-byte.
func (b *Bound) bindTopology() error {
	dk, err := topology.ParseDelayKind(b.spec.DelayDist)
	if err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if j := b.spec.LinkJitter; j < 0 || j >= 1 {
		return fmt.Errorf("scenario: link_jitter must be in [0,1), got %v", j)
	}
	if b.spec.LinkDelay < 0 {
		return fmt.Errorf("scenario: link_delay must be >= 0, got %v", b.spec.LinkDelay)
	}
	b.topoDelay = topology.DelayModel{Kind: dk, Jitter: b.spec.LinkJitter}
	name := b.spec.Topology
	if name == "" {
		name = TopoComplete
	}
	if _, ok := Topologies.Lookup(string(name)); !ok {
		return fmt.Errorf("scenario: unknown topology %q (have %s)", name, Topologies.Help())
	}
	if name == TopoComplete {
		return nil
	}
	g, err := buildGraph(&b.spec, name)
	if err != nil {
		return err
	}
	if !g.Connected() {
		return fmt.Errorf("scenario: topology %q with n=%d is disconnected", name, b.spec.N)
	}
	b.topo = g
	// One shared route plane per binding: transports and tools that
	// source-route over this graph share its shortest-path trees across
	// every trial and worker instead of recomputing them per trial.
	b.routes = topology.NewRoutes(g)
	return nil
}

// buildGraph runs the registered generator for one topology name. Link
// latencies come out in simulator time units: LinkDelay (default 0.5) is
// in Δ, so a sparse graph's extra hops are measured against the oracle's
// Δ-bound.
func buildGraph(s *Spec, name Topology) (*topology.Graph, error) {
	def, ok := Topologies.Lookup(string(name))
	if !ok {
		return nil, fmt.Errorf("scenario: unknown topology %q (have %s)", name, Topologies.Help())
	}
	delta := s.Delta
	if delta == 0 {
		delta = 1
	}
	linkDelay := s.LinkDelay
	if linkDelay == 0 {
		linkDelay = 0.5
	}
	return def(s, xrand.New(s.Seed, topologyStream), linkDelay*delta, delta)
}

// BuildTopology materializes the graph a spec names, exactly as Bind
// would — except that the complete topology yields an explicit mesh
// instead of the nil oracle marker, so inspection tools (amdot) can draw
// it. Connectivity is reported, not enforced.
func BuildTopology(spec Spec) (*topology.Graph, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("scenario: topology needs n > 0, got %d", spec.N)
	}
	name := spec.Topology
	if name == "" {
		name = TopoComplete
	}
	return buildGraph(&spec, name)
}

// MustBind is Bind for vetted specs (experiment code); it panics on error.
func MustBind(spec Spec) *Bound {
	b, err := Bind(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// Rule returns the resolved honest rule (nil for sync scenarios).
func (b *Bound) Rule() agreement.HonestRule { return b.rule }

// NewAdversary returns a fresh adversary instance (randomized scenarios).
func (b *Bound) NewAdversary() agreement.Adversary { return b.newAdv() }

// randomizedConfig assembles the per-seed harness config. Field-for-field
// it matches what the experiments passed to agreement.MustRun before the
// scenario layer existed — the golden tests pin that equivalence.
func (b *Bound) randomizedConfig(seed uint64, rec *trace.Recorder) agreement.RandomizedConfig {
	cfg := agreement.RandomizedConfig{
		N: b.spec.N, T: b.spec.T, Lambda: b.spec.Lambda, Rates: b.spec.Rates,
		Delta: b.spec.Delta, K: b.spec.K, Seed: seed,
		Inputs: b.inputs(seed), Crashes: b.spec.Crashes,
		FreshHonestReads: b.spec.FreshReads,
		StallAtSize:      b.spec.StallAtSize, StallFor: b.spec.StallFor,
		AsyncDelayMax: b.spec.AsyncDelayMax,
		Window:        b.spec.Window,
		Trace:         rec,
	}
	if b.topo != nil {
		cfg.Topology = b.topo
		cfg.TopologyDelay = b.topoDelay
	}
	b.access(&cfg)
	return cfg
}

// Randomized executes one run on the randomized-access harness and
// returns the harness-level result (experiments analyse its FinalView,
// DecideTime, Mem, ...). It panics on sync scenarios and on the
// impossible config error (Bind validated everything seed-independent).
func (b *Bound) Randomized(seed uint64) *agreement.Result {
	if b.sync {
		panic("scenario: Randomized called on a sync scenario")
	}
	return agreement.MustRun(b.randomizedConfig(seed, nil), b.rule, b.newAdv())
}

// Sync executes one run on the synchronous-round harness. It panics on
// randomized scenarios.
func (b *Bound) Sync(seed uint64) *syncba.Result {
	if !b.sync {
		panic("scenario: Sync called on a randomized scenario")
	}
	r, err := syncba.Run(b.syncConfig(seed, nil), b.newSync())
	if err != nil {
		panic(err)
	}
	return r
}

func (b *Bound) syncConfig(seed uint64, rec *trace.Recorder) syncba.Config {
	return syncba.Config{
		N: b.spec.N, T: b.spec.T, Rounds: b.spec.Rounds, Delta: b.spec.Delta,
		Seed: seed, Inputs: b.inputs(seed), Crashes: b.spec.Crashes,
		Trace: rec,
	}
}

// Run executes one run at the given seed and returns the uniform Result.
func (b *Bound) Run(seed uint64) (*Result, error) {
	return b.RunTraced(seed, nil)
}

// RunTraced is Run with an optional event recorder (see internal/trace).
func (b *Bound) RunTraced(seed uint64, rec *trace.Recorder) (*Result, error) {
	if b.sync {
		r, err := syncba.Run(b.syncConfig(seed, rec), b.newSync())
		if err != nil {
			return nil, err
		}
		return &Result{
			Verdict:  r.Verdict,
			Decision: r.Outcome.Decision, Decided: r.Outcome.Decided,
			Roster: r.Roster, Inputs: r.Inputs,
			TotalAppends: r.FinalView.Size(), Duration: r.Duration,
			FinalView: r.FinalView, HasView: true,
		}, nil
	}
	r, err := agreement.RunRandomized(b.randomizedConfig(seed, rec), b.rule, b.newAdv())
	if err != nil {
		return nil, err
	}
	return fromRandomized(r), nil
}

// fromRandomized converts a randomized-harness result into the uniform
// scenario Result (shared by the trial path and the checkpointing sweep
// executor).
func fromRandomized(r *agreement.Result) *Result {
	return &Result{
		Verdict:  r.Verdict,
		Decision: r.Outcome.Decision, Decided: r.Outcome.Decided,
		Roster: r.Roster, Inputs: r.Inputs,
		TotalAppends: r.TotalAppends, ByzAppends: r.ByzAppends,
		Grants: r.Grants, Duration: r.Duration,
		FinalView: r.FinalView, HasView: true,
		DecideTime:   r.DecideTime,
		VisMeanLag:   r.VisMeanLag,
		MemHighWater: r.MemHighWater,
		Mem:          r.Mem, DecideViewSize: r.DecideViewSize,
	}
}

// mustRun is Run for the sweep executor: Bind has already validated the
// spec, so a run error is a programming error.
func (b *Bound) mustRun(seed uint64) *Result {
	r, err := b.Run(seed)
	if err != nil {
		panic(err)
	}
	return r
}
