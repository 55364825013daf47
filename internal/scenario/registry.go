// Package scenario is the declarative layer over the protocol harnesses:
// named registries of protocols, tie-breaking rules, pivot rules,
// adversaries, access models and metric extractors, plus a JSON-serializable
// Spec that names one (protocol, adversary, parameters) combination — or a
// whole sweep over them — and can be bound and executed without writing Go.
//
// Every component is resolvable from a string and enumerable for help
// output, so the amrun CLI, the experiments package and user-supplied
// examples/scenarios/*.json files all draw from the same single source of
// truth. Binding (Bind) resolves every name exactly once; the per-trial
// path runs entirely on the resolved closures, so the registry adds no
// lookup to the hot loop.
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/agreement/syncba"
	"repro/internal/agreement/timestamp"
	"repro/internal/appendmem"
	"repro/internal/chain"
)

// Protocol selects the agreement algorithm.
type Protocol string

// Protocols: the paper's four agreement algorithms.
const (
	Sync      Protocol = "sync"      // Algorithm 1 — deterministic BA, synchronous rounds (§3.2)
	Timestamp Protocol = "timestamp" // Algorithm 4 — absolute-timestamp baseline (§5.1)
	Chain     Protocol = "chain"     // Algorithm 5 — longest chain with a tie-breaking rule (§5.2)
	Dag       Protocol = "dag"       // Algorithm 6 — BlockDAG with a pivot rule (§5.3)
)

// TieBreak selects the chain protocol's tie-breaking rule.
type TieBreak string

// Tie-breaking rules (chain protocol only).
const (
	TieFirst       TieBreak = "first"
	TieRandom      TieBreak = "random"
	TieAdversarial TieBreak = "adversarial"
)

// Pivot selects the DAG protocol's pivot rule.
type Pivot string

// Pivot rules (dag protocol only).
const (
	PivotGhost   Pivot = "ghost"
	PivotLongest Pivot = "longest"
)

// Attack names the Byzantine strategy.
type Attack string

// Attacks. Silent works everywhere; the rest are protocol-specific (see
// the registry docs printed by amrun -list).
const (
	AttackSilent       Attack = "silent"
	AttackFlip         Attack = "flip"          // timestamp/chain/dag: honest structure, flipped vote, fresh reads
	AttackFork         Attack = "fork"          // chain: Theorem 5.3 sibling forks
	AttackTieBreak     Attack = "tiebreak"      // chain: Theorem 5.4 fresh-tip extension
	AttackPrivateChain Attack = "private-chain" // dag: Lemma 5.5 pivot-extending chains
	AttackLastMinute   Attack = "last-minute"   // dag: Lemma 5.5's literal pre-decision burst
	AttackPrivateFork  Attack = "private-fork"  // dag: genesis-rooted private chain (the GHOST-motivating attack)
	AttackEquivocate   Attack = "equivocate"    // chain: alternating fork/extend
	AttackDelayedChain Attack = "delayed-chain" // sync: Lemma 3.1 hidden chain
	AttackLoudFlip     Attack = "loud-flip"     // sync: on-schedule flipped votes
	AttackRandom       Attack = "random"        // any randomized protocol: well-formed fuzzing noise
)

// Access names the token authority discipline.
type Access string

// Access models.
const (
	AccessPoisson    Access = "poisson"     // §1.1's Poisson process (the default; the PoW reading)
	AccessRoundRobin Access = "round-robin" // burst-free deterministic authority at the same aggregate rate
)

// Registry is an ordered name → definition map: registration order is
// enumeration order, lookups are exact, and every entry carries a one-line
// doc for -list output.
type Registry[V any] struct {
	order []string
	m     map[string]V
	docs  map[string]string
}

func newRegistry[V any]() *Registry[V] {
	return &Registry[V]{m: map[string]V{}, docs: map[string]string{}}
}

// Register adds a definition; duplicate names panic (registries are wired
// at init time, a duplicate is a programming error).
func (r *Registry[V]) Register(name, doc string, v V) {
	if _, dup := r.m[name]; dup {
		panic("scenario: duplicate registration " + name)
	}
	r.order = append(r.order, name)
	r.m[name] = v
	r.docs[name] = doc
}

// Lookup resolves a name.
func (r *Registry[V]) Lookup(name string) (V, bool) {
	v, ok := r.m[name]
	return v, ok
}

// Names enumerates the registered names in registration order. The slice
// is freshly allocated.
func (r *Registry[V]) Names() []string {
	return append([]string(nil), r.order...)
}

// Doc returns the one-line description of a registered name.
func (r *Registry[V]) Doc(name string) string { return r.docs[name] }

// Help renders "a | b | c" from the registered names, for flag usage text.
func (r *Registry[V]) Help() string { return strings.Join(r.order, " | ") }

// ProtocolDef is one registered protocol: either the synchronous-round
// harness (Sync true) or a randomized-access honest rule built from the
// spec's sub-options (tiebreak, pivot, confirm).
type ProtocolDef struct {
	// Sync marks the synchronous-round harness (Algorithm 1); Rule is nil.
	Sync bool
	// Rule builds the protocol's honest rule from the spec (nil for Sync).
	Rule func(s *Spec) (agreement.HonestRule, error)
}

// TieBreakDef builds a chain tie-breaker; n and t are the spec's roster
// shape (the adversarial rule needs to know who is Byzantine).
type TieBreakDef func(n, t int) chain.TieBreaker

// AttackDef is one registered Byzantine strategy. Exactly one constructor
// is consulted per bind: NewSync for the sync protocol, New otherwise.
// Factories return fresh adversary instances — trial fan-outs run
// concurrently and adversaries carry per-run state.
type AttackDef struct {
	// Protocols lists the randomized protocols the attack applies to;
	// empty means every randomized protocol. (Sync applicability is
	// signalled by NewSync being non-nil.)
	Protocols []Protocol
	// New builds the adversary factory for randomized protocols; rule is
	// the already-resolved honest rule (the flip attack mirrors it).
	New func(s *Spec, rule agreement.HonestRule) (func() agreement.Adversary, error)
	// NewSync builds the adversary factory for the sync protocol.
	NewSync func(s *Spec) (func() syncba.Adversary, error)
	// Schema declares the attack's settable template parameters; nil for
	// attacks that are not presets of a template (they reject
	// attack_params). Preset is the attack's default parameter assignment
	// — the point in Schema space that reproduces the named strategy.
	Schema adversary.Schema
	Preset adversary.Params
}

// ResolveParams resolves the attack's parameter assignment for one spec:
// the preset, adjusted by spec-level sugar (margin overrides a preset's
// StartWithin), then the spec's attack_params overrides, each validated
// against the schema. Attacks without a schema accept no overrides.
func (d AttackDef) ResolveParams(s *Spec) (adversary.Params, error) {
	p := d.Preset
	if s.Margin > 0 && p.StartWithin > 0 {
		p.StartWithin = s.Margin
	}
	if len(s.AttackParams) == 0 {
		return p, nil
	}
	if d.Schema == nil {
		return adversary.Params{}, fmt.Errorf("scenario: attack %q takes no parameters (parameterized attacks: %s)",
			s.Attack, strings.Join(ParameterizedAttacks(), " | "))
	}
	overrides := make(map[string]adversary.ParamValue, len(s.AttackParams))
	for name, v := range s.AttackParams {
		overrides[name] = adversary.ParamValue{Num: v.Num, Str: v.Str, IsStr: v.IsStr}
	}
	rp, err := d.Schema.Resolve(p, overrides)
	if err != nil {
		return adversary.Params{}, fmt.Errorf("scenario: attack %q: %w", s.Attack, err)
	}
	return rp, nil
}

// AttackParamLines renders one attack's parameter schema as help lines —
// name, type, range, preset default and doc — so amrun/amsearch -list
// make the search space discoverable without reading source. Nil for
// unparameterized attacks.
func AttackParamLines(name string) []string {
	def, ok := Attacks.Lookup(name)
	if !ok || def.Schema == nil {
		return nil
	}
	out := make([]string, 0, len(def.Schema))
	for _, ps := range def.Schema {
		out = append(out, fmt.Sprintf("%-13s %-6s %-15s default %-9s %s",
			ps.Name, ps.Kind, ps.Range(), ps.Value(def.Preset).Text(), ps.Doc))
	}
	return out
}

// ExplicitAttackParams resolves the spec's attack parameters (preset,
// margin sugar, attack_params overrides) and renders the full assignment
// — every schema parameter, not just the overridden ones — as a spec
// attack_params map. A counterexample spec written with the explicit
// assignment stays a faithful regression even if a preset's defaults
// drift later. Errors on unparameterized attacks.
func ExplicitAttackParams(s Spec) (map[string]Value, error) {
	attackName := s.Attack
	if attackName == "" {
		attackName = AttackSilent
	}
	def, ok := Attacks.Lookup(string(attackName))
	if !ok {
		return nil, fmt.Errorf("scenario: unknown attack %q (have %s)", attackName, Attacks.Help())
	}
	if def.Schema == nil {
		return nil, fmt.Errorf("scenario: attack %q takes no parameters (parameterized attacks: %s)",
			attackName, strings.Join(ParameterizedAttacks(), " | "))
	}
	p, err := def.ResolveParams(&s)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Value, len(def.Schema))
	for _, ps := range def.Schema {
		v := ps.Value(p)
		out[ps.Name] = Value{Num: v.Num, Str: v.Str, IsStr: v.IsStr}
	}
	return out, nil
}

// ParameterizedAttacks enumerates the attacks carrying a parameter
// schema, in registration order.
func ParameterizedAttacks() []string {
	var out []string
	for _, name := range Attacks.order {
		if Attacks.m[name].Schema != nil {
			out = append(out, name)
		}
	}
	return out
}

// chainTemplate builds the New constructor of a ChainAttack preset; the
// def's ResolveParams applies spec-level overrides at Bind time.
func chainTemplate(name Attack) func(*Spec, agreement.HonestRule) (func() agreement.Adversary, error) {
	return func(s *Spec, _ agreement.HonestRule) (func() agreement.Adversary, error) {
		def, _ := Attacks.Lookup(string(name))
		p, err := def.ResolveParams(s)
		if err != nil {
			return nil, err
		}
		return func() agreement.Adversary { return &adversary.ChainAttack{P: p} }, nil
	}
}

// dagTemplate builds the New constructor of a DagAttack preset. The
// template's pivot rule follows the spec's (honest) pivot choice, like
// the legacy strategies did.
func dagTemplate(name Attack) func(*Spec, agreement.HonestRule) (func() agreement.Adversary, error) {
	return func(s *Spec, _ agreement.HonestRule) (func() agreement.Adversary, error) {
		def, _ := Attacks.Lookup(string(name))
		p, err := def.ResolveParams(s)
		if err != nil {
			return nil, err
		}
		pivot, err := resolvePivot(s)
		if err != nil {
			return nil, err
		}
		return func() agreement.Adversary { return &adversary.DagAttack{P: p, Pivot: pivot} }, nil
	}
}

// AccessDef applies one access-model choice to a randomized config.
type AccessDef func(cfg *agreement.RandomizedConfig)

// The process-wide registries. They are populated here and extended by
// metrics.go and topologies.go; all writes happen at package init, so
// concurrent reads are safe.
var (
	Protocols    = newRegistry[ProtocolDef]()
	TieBreaks    = newRegistry[TieBreakDef]()
	Pivots       = newRegistry[dagba.PivotRule]()
	Attacks      = newRegistry[AttackDef]()
	AccessModels = newRegistry[AccessDef]()
	Metrics      = newRegistry[MetricDef]()
	Topologies   = newRegistry[TopologyDef]()
)

// appliesTo reports whether the attack covers the given randomized
// protocol (an empty Protocols list means all of them).
func (d AttackDef) appliesTo(p Protocol) bool {
	if len(d.Protocols) == 0 {
		return true
	}
	for _, q := range d.Protocols {
		if q == p {
			return true
		}
	}
	return false
}

// resolveTieBreak resolves the chain tie-breaking rule; "" means random.
func resolveTieBreak(s *Spec) (chain.TieBreaker, error) {
	name := s.TieBreak
	if name == "" {
		name = TieRandom
	}
	def, ok := TieBreaks.Lookup(string(name))
	if !ok {
		return nil, fmt.Errorf("scenario: unknown tie-break %q (have %s)", name, TieBreaks.Help())
	}
	return def(s.N, s.T), nil
}

// resolvePivot resolves the DAG pivot rule; "" means ghost.
func resolvePivot(s *Spec) (dagba.PivotRule, error) {
	name := s.Pivot
	if name == "" {
		name = PivotGhost
	}
	p, ok := Pivots.Lookup(string(name))
	if !ok {
		return 0, fmt.Errorf("scenario: unknown pivot %q (have %s)", name, Pivots.Help())
	}
	return p, nil
}

func init() {
	Protocols.Register(string(Sync),
		"Algorithm 1: deterministic BA in synchronous rounds (Theorem 3.2)",
		ProtocolDef{Sync: true})
	Protocols.Register(string(Timestamp),
		"Algorithm 4: decide on the sign of the first k values by absolute timestamp (Theorem 5.2)",
		ProtocolDef{Rule: func(s *Spec) (agreement.HonestRule, error) {
			if s.Confirm != 0 {
				return nil, fmt.Errorf("scenario: confirm depth applies to chain/dag only")
			}
			return timestamp.Rule{}, nil
		}})
	Protocols.Register(string(Chain),
		"Algorithm 5: longest chain with a tie-breaking rule (Theorems 5.3/5.4)",
		ProtocolDef{Rule: func(s *Spec) (agreement.HonestRule, error) {
			tb, err := resolveTieBreak(s)
			if err != nil {
				return nil, err
			}
			return chainba.Rule{TB: tb, Confirm: s.Confirm}, nil
		}})
	Protocols.Register(string(Dag),
		"Algorithm 6: BlockDAG ordered by a pivot rule (Theorem 5.6)",
		ProtocolDef{Rule: func(s *Spec) (agreement.HonestRule, error) {
			p, err := resolvePivot(s)
			if err != nil {
				return nil, err
			}
			return dagba.Rule{Pivot: p, Confirm: s.Confirm}, nil
		}})

	TieBreaks.Register(string(TieRandom),
		"break longest-chain ties uniformly at random (Theorem 5.4's honest rule)",
		func(n, t int) chain.TieBreaker { return chain.RandomTieBreaker{} })
	TieBreaks.Register(string(TieFirst),
		"break ties toward the first-appended tip",
		func(n, t int) chain.TieBreaker { return chain.FirstTieBreaker{} })
	TieBreaks.Register(string(TieAdversarial),
		"worst-case deterministic rule: prefer Byzantine-authored tips (Theorem 5.3)",
		func(n, t int) chain.TieBreaker {
			return chain.AdversarialTieBreaker{
				IsByzantine: func(id appendmem.NodeID) bool { return int(id) >= n-t },
			}
		})

	Pivots.Register(string(PivotGhost),
		"GHOST: follow the heaviest subtree (ref [22])", dagba.Ghost)
	Pivots.Register(string(PivotLongest),
		"longest selected-parent chain (ref [14])", dagba.Longest)

	Attacks.Register(string(AttackSilent),
		"Byzantine nodes never append (crash-mute); valid for every protocol",
		AttackDef{
			New: func(*Spec, agreement.HonestRule) (func() agreement.Adversary, error) {
				return func() agreement.Adversary { return agreement.Silent{} }, nil
			},
			NewSync: func(*Spec) (func() syncba.Adversary, error) {
				return func() syncba.Adversary { return syncba.Silent{} }, nil
			},
		})
	Attacks.Register(string(AttackFlip),
		"follow the honest structure rule with fresh reads, but always vote -1",
		AttackDef{
			New: func(s *Spec, rule agreement.HonestRule) (func() agreement.Adversary, error) {
				return func() agreement.Adversary { return &agreement.ValueFlip{Rule: rule} }, nil
			},
		})
	Attacks.Register(string(AttackRandom),
		"well-formed fuzzing noise: random values on random parents",
		AttackDef{
			New: func(*Spec, agreement.HonestRule) (func() agreement.Adversary, error) {
				return func() agreement.Adversary { return &adversary.Random{} }, nil
			},
		})
	// The chain and DAG attacks are presets of the two parameterized
	// templates (adversary.ChainAttack / adversary.DagAttack): each preset
	// is the adversary package's Params value of the same name, and
	// attack_params / attack:<param> sweeps move off the preset.
	chainSchema := adversary.ChainSchema()
	dagSchema := adversary.DagSchema()
	Attacks.Register(string(AttackFork),
		"Theorem 5.3: fork the deepest correct block with a sibling (chain only)",
		AttackDef{
			Protocols: []Protocol{Chain},
			Schema:    chainSchema,
			Preset:    adversary.Fork,
			New:       chainTemplate(AttackFork),
		})
	Attacks.Register(string(AttackTieBreak),
		"Theorem 5.4: extend the freshest tip so stale honest appends are wasted (chain only)",
		AttackDef{
			Protocols: []Protocol{Chain},
			Schema:    chainSchema,
			Preset:    adversary.TieBreak,
			New:       chainTemplate(AttackTieBreak),
		})
	Attacks.Register(string(AttackEquivocate),
		"alternate forking and extending the two deepest tips (chain only)",
		AttackDef{
			Protocols: []Protocol{Chain},
			Schema:    chainSchema,
			Preset:    adversary.Equivocate,
			New:       chainTemplate(AttackEquivocate),
		})
	Attacks.Register(string(AttackPrivateChain),
		"Lemma 5.5: continuously extend the pivot with single-parent private chains (dag only)",
		AttackDef{
			Protocols: []Protocol{Dag},
			Schema:    dagSchema,
			Preset:    adversary.PrivateChain,
			New:       dagTemplate(AttackPrivateChain),
		})
	Attacks.Register(string(AttackLastMinute),
		"Lemma 5.5's literal strategy: stay silent, burst within `margin` of the decision (dag only)",
		AttackDef{
			Protocols: []Protocol{Dag},
			Schema:    dagSchema,
			Preset:    adversary.LastMinute,
			New:       dagTemplate(AttackLastMinute),
		})
	Attacks.Register(string(AttackPrivateFork),
		"genesis-rooted private chain that never references honest blocks — the GHOST-motivating attack (dag only)",
		AttackDef{
			Protocols: []Protocol{Dag},
			Schema:    dagSchema,
			Preset:    adversary.PrivateFork,
			New:       dagTemplate(AttackPrivateFork),
		})
	Attacks.Register(string(AttackDelayedChain),
		"Lemma 3.1: reveal a hidden signature chain one round too late (sync only)",
		AttackDef{
			NewSync: func(*Spec) (func() syncba.Adversary, error) {
				return func() syncba.Adversary { return &syncba.DelayedChain{} }, nil
			},
		})
	Attacks.Register(string(AttackLoudFlip),
		"vote against the unanimous correct input on schedule (sync only)",
		AttackDef{
			NewSync: func(*Spec) (func() syncba.Adversary, error) {
				return func() syncba.Adversary { return &syncba.LoudFlip{} }, nil
			},
		})

	AccessModels.Register(string(AccessPoisson),
		"§1.1's Poisson token authority (rate λ per node per Δ; the PoW reading)",
		func(cfg *agreement.RandomizedConfig) { cfg.RoundRobinAccess = false })
	AccessModels.Register(string(AccessRoundRobin),
		"burst-free deterministic round-robin authority at the same aggregate rate (E17's ablation)",
		func(cfg *agreement.RandomizedConfig) { cfg.RoundRobinAccess = true })
}

// SyncAttacks enumerates the attacks applicable to the sync protocol, in
// registration order.
func SyncAttacks() []string {
	var out []string
	for _, name := range Attacks.order {
		if Attacks.m[name].NewSync != nil {
			out = append(out, name)
		}
	}
	return out
}

// AttacksFor enumerates the attacks applicable to one randomized protocol,
// in registration order.
func AttacksFor(p Protocol) []string {
	var out []string
	for _, name := range Attacks.order {
		d := Attacks.m[name]
		if d.New != nil && d.appliesTo(p) {
			out = append(out, name)
		}
	}
	return out
}
