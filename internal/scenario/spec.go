package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
)

// Spec declares one scenario: a protocol, an adversary, the model
// parameters, an optional sweep over any of them, and the trials/metrics
// block that turns runs into numbers. The zero value of every optional
// field means "the default", so specs stay terse, and the whole struct
// round-trips through JSON — examples/scenarios/*.json files are Specs.
//
// The struct is the only list of scenario parameters. A field with a
// `help` tag is a command-line flag named after its json tag with _ → -
// (stall_at is -stall-at; see Flags), and a scalar one is also a sweep
// axis named after its json tag, unless tagged `sweep:"-"`.
type Spec struct {
	// Name labels the scenario in tables and JSON output.
	Name string `json:"name,omitempty"`
	// Doc is a free-form description (carried through JSON, never parsed).
	Doc string `json:"doc,omitempty"`

	Protocol Protocol `json:"protocol" help:"agreement protocol"`
	N        int      `json:"n" help:"total nodes"`
	T        int      `json:"t,omitempty" help:"Byzantine nodes (the last t ids)"`
	Crashes  int      `json:"crashes,omitempty" help:"crash-faulty correct nodes"`

	Lambda float64   `json:"lambda,omitempty" help:"token rate per node per Δ (randomized protocols)"`
	Rates  []float64 `json:"rates,omitempty"` // per-node rates ("hashing power"); overrides Lambda
	Delta  float64   `json:"delta,omitempty" help:"synchrony bound Δ (0 = 1.0)"`
	K      int       `json:"k,omitempty" help:"decision threshold (randomized protocols)"`
	Rounds int       `json:"rounds,omitempty" help:"rounds for the sync protocol (0 = t+1)"`

	TieBreak TieBreak `json:"tiebreak,omitempty" help:"chain tie-breaking (empty = random)"`
	Pivot    Pivot    `json:"pivot,omitempty" help:"dag pivot rule (empty = ghost)"`
	Confirm  int      `json:"confirm,omitempty" help:"chain/dag confirmation depth"`

	Attack Attack `json:"attack,omitempty" help:"Byzantine strategy (empty = silent)"`
	// AttackParams overrides individual template parameters of a
	// parameterized attack (see the attack's Schema, printed by amrun
	// -list). Unknown names and out-of-range values are rejected at Bind.
	AttackParams map[string]Value `json:"attack_params,omitempty" help:"attack template parameter overrides as name=value,name=value (see -list for each attack's schema)"`

	Inputs string `json:"inputs,omitempty" help:"inputs: same | same:-1 | split:<ones> | random (empty = same)"`

	Access     Access `json:"access,omitempty" help:"token authority (empty = poisson)"`
	FreshReads bool   `json:"fresh_reads,omitempty" help:"ablation: honest nodes read at grant time (no Δ staleness)"`

	// Topology selects the network graph the appends propagate over; ""
	// (or "complete") keeps the Δ-bounded oracle path. The remaining
	// fields shape the graph and its per-link delays; they are inert on
	// the complete topology, so sweeps may mix it with sparse graphs.
	Topology       Topology           `json:"topology,omitempty" help:"network topology (empty = complete)"`
	TopologyParams map[string]float64 `json:"topology_params,omitempty" help:"topology generator parameters as k=v,k=v (e.g. k=2,beta=0.3)"`
	TopologyTable  [][]float64        `json:"topology_table,omitempty"` // explicit [from, to, latency-in-Δ] rows (topology "table")
	LinkDelay      float64            `json:"link_delay,omitempty" help:"base per-link latency in Δ (0 = 0.5)"`
	LinkJitter     float64            `json:"link_jitter,omitempty" help:"per-link delay spread fraction in [0,1) (0 = the model default)"`
	DelayDist      string             `json:"delay_dist,omitempty" help:"per-link delay distribution (empty = fixed; -list shows all)"`

	StallAtSize   int     `json:"stall_at,omitempty" help:"inject an async blackout once memory reaches this size (0 = off)"`
	StallFor      float64 `json:"stall_for,omitempty" help:"blackout duration in Δ (0 = 8)"`
	AsyncDelayMax float64 `json:"async_delay_max,omitempty" help:"honest token-to-append delay bound in Δ, Theorem 5.1 (0 = off)"`

	// Window > 0 runs the memory in windowed (bounded-live) mode: every Δ
	// the harness retires messages no party can reach any more, keeping at
	// least Window live. Decisions are unchanged. Chain/dag protocols with
	// the silent or flip attack only; must cover the decision lookback
	// k+confirm; incompatible with topology/async/stall and Checkpoint.
	Window int `json:"window,omitempty" help:"bounded-memory horizon: keep at least this many messages live, retiring older ones (0 = unbounded)"`
	// Checkpoint reuses trial prefixes across a confirm sweep: the lowest
	// confirmation point of each sweep group snapshots every trial at its
	// first decision, and deeper-confirmation points fast-forward from the
	// snapshot instead of re-simulating the shared prefix. Results are
	// byte-identical with or without it. Chain/dag with silent/flip only.
	Checkpoint bool `json:"checkpoint,omitempty" help:"snapshot each trial at first decision and reuse the prefix across confirm-sweep points" sweep:"-"`

	Seed   uint64 `json:"seed,omitempty" help:"base seed; trial i uses seed+i"`
	Trials int    `json:"trials,omitempty" help:"trials per sweep point (0 = 1)" sweep:"-"`

	// Metrics names the metric extractors evaluated per point (see the
	// Metrics registry); empty means ok/validity/agreement/termination.
	Metrics []string `json:"metrics,omitempty"`

	// Sweep declares the parameter axes: the cartesian product of the axis
	// values is run, first axis outermost. An empty sweep is one point.
	Sweep []Axis `json:"sweep,omitempty"`
}

// param is one Spec field reachable from the command line.
type param struct {
	name  string // the json tag: the sweep axis name; the flag swaps _ for -
	help  string
	index int  // field index in Spec
	axis  bool // sweepable: a scalar field not tagged sweep:"-"
}

// flagName is the param's command-line flag name.
func (p param) flagName() string { return strings.ReplaceAll(p.name, "_", "-") }

// paramTable lists the Spec fields that carry a help tag, in declaration
// order; it is read off the struct, never written out by hand.
var paramTable = specParams()

func specParams() []param {
	t := reflect.TypeOf(Spec{})
	var ps []param
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		help, ok := f.Tag.Lookup("help")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		ps = append(ps, param{name: name, help: help, index: i,
			axis: f.Type.Kind() != reflect.Map && f.Tag.Get("sweep") != "-"})
	}
	return ps
}

// Axis is one sweep dimension: a parameter name and the values it takes.
type Axis struct {
	Name   string  `json:"axis"`
	Values []Value `json:"values"`
}

// Value is one sweep value: a number or a string, matching the JSON
// representation ("values": [0.05, 0.25] vs ["ghost", "longest"]).
type Value struct {
	Num   float64
	Str   string
	IsStr bool
}

// MarshalJSON emits the number or the string.
func (v Value) MarshalJSON() ([]byte, error) {
	if v.IsStr {
		return json.Marshal(v.Str)
	}
	return json.Marshal(v.Num)
}

// UnmarshalJSON accepts a JSON number or string.
func (v *Value) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if strings.HasPrefix(s, `"`) {
		v.IsStr = true
		v.Num = 0
		return json.Unmarshal(b, &v.Str)
	}
	v.IsStr = false
	v.Str = ""
	return json.Unmarshal(b, &v.Num)
}

// Text is the display form of the value.
func (v Value) Text() string {
	if v.IsStr {
		return v.Str
	}
	return strconv.FormatFloat(v.Num, 'g', -1, 64)
}

// ParseValue turns a CLI token into a Value: numbers become numeric,
// anything else stays a string.
func ParseValue(tok string) Value {
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return Value{Num: f}
	}
	return Value{Str: tok, IsStr: true}
}

// ParseAttackParams parses a CLI "name=value,name=value" list into the
// spec's attack_params map. Values follow ParseValue (numbers become
// numeric); names and ranges are validated at Bind against the bound
// attack's schema.
func ParseAttackParams(s string) (map[string]Value, error) {
	if s == "" {
		return nil, nil
	}
	params := map[string]Value{}
	for _, tok := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(tok), "=")
		if !ok || name == "" || val == "" {
			return nil, fmt.Errorf("scenario: attack parameter %q is not of the form name=value", tok)
		}
		params[name] = ParseValue(val)
	}
	return params, nil
}

// ParseAxis parses a CLI sweep flag of the form "axis=v1,v2,...".
func ParseAxis(s string) (Axis, error) {
	name, vals, ok := strings.Cut(s, "=")
	if !ok || name == "" || vals == "" {
		return Axis{}, fmt.Errorf("scenario: sweep %q is not of the form axis=v1,v2,...", s)
	}
	ax := Axis{Name: strings.TrimSpace(name)}
	for _, tok := range strings.Split(vals, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			return Axis{}, fmt.Errorf("scenario: sweep %q has an empty value", s)
		}
		ax.Values = append(ax.Values, ParseValue(tok))
	}
	if topoParamAxis(ax.Name) != "" || attackParamAxis(ax.Name) != "" {
		return ax, nil
	}
	for _, known := range SweepAxes() {
		if ax.Name == known {
			return ax, nil
		}
	}
	return Axis{}, fmt.Errorf("scenario: unknown sweep axis %q (have %s)", ax.Name, strings.Join(SweepAxes(), ", "))
}

// SweepAxes lists the parameter names a sweep may vary, in Spec field
// order. In addition to these, "topo:<param>" sweeps one topology
// generator parameter (e.g. "topo:beta" for the small-world rewiring
// probability) and "attack:<param>" sweeps one attack template parameter
// (e.g. "attack:fork_period" for the chain templates' fork schedule).
func SweepAxes() []string {
	var axes []string
	for _, p := range paramTable {
		if p.axis {
			axes = append(axes, p.name)
		}
	}
	return append(axes, "topo:<param>", "attack:<param>")
}

// topoParamAxis returns the topology parameter name a "topo:<param>" axis
// addresses, or "" when the axis is not of that form.
func topoParamAxis(axis string) string {
	if p, ok := strings.CutPrefix(axis, "topo:"); ok && p != "" {
		return p
	}
	return ""
}

// attackParamAxis returns the attack template parameter an
// "attack:<param>" axis addresses, or "" when the axis is not of that
// form. Name and value validation happen at Bind, against the bound
// attack's schema.
func attackParamAxis(axis string) string {
	if p, ok := strings.CutPrefix(axis, "attack:"); ok && p != "" {
		return p
	}
	return ""
}

// with returns the spec with one axis set to one value.
func (s Spec) with(axis string, v Value) (Spec, error) {
	if param := attackParamAxis(axis); param != "" {
		// Copy-on-write, like topo:<param>: sweep points must not alias
		// one params map.
		params := make(map[string]Value, len(s.AttackParams)+1)
		for k, pv := range s.AttackParams {
			params[k] = pv
		}
		params[param] = v
		s.AttackParams = params
		return s, nil
	}
	if param := topoParamAxis(axis); param != "" {
		if v.IsStr {
			return s, fmt.Errorf("scenario: axis %q needs numeric values, got %q", axis, v.Str)
		}
		// Copy-on-write: sweep points must not alias one params map.
		params := make(map[string]float64, len(s.TopologyParams)+1)
		for k, pv := range s.TopologyParams {
			params[k] = pv
		}
		params[param] = v.Num
		s.TopologyParams = params
		return s, nil
	}
	for _, p := range paramTable {
		if p.axis && p.name == axis {
			return s, setAxis(reflect.ValueOf(&s).Elem().Field(p.index), axis, v)
		}
	}
	return s, fmt.Errorf("scenario: unknown sweep axis %q (have %s)", axis, strings.Join(SweepAxes(), ", "))
}

// setAxis stores one sweep value into a scalar Spec field, checking that
// the value's kind fits the field's.
func setAxis(f reflect.Value, axis string, v Value) error {
	if f.Kind() == reflect.String {
		if !v.IsStr {
			return fmt.Errorf("scenario: axis %q needs string values, got %v", axis, v.Num)
		}
		f.SetString(v.Str)
		return nil
	}
	if f.Kind() == reflect.Bool {
		switch {
		case v.IsStr && (v.Str == "true" || v.Str == "false"):
			f.SetBool(v.Str == "true")
		case !v.IsStr:
			f.SetBool(v.Num != 0)
		default:
			return fmt.Errorf("scenario: axis %s needs true/false or 0/1, got %q", axis, v.Str)
		}
		return nil
	}
	if v.IsStr {
		return fmt.Errorf("scenario: axis %q needs numeric values, got %q", axis, v.Str)
	}
	if f.Kind() == reflect.Float64 {
		f.SetFloat(v.Num)
		return nil
	}
	n := int(v.Num)
	if float64(n) != v.Num {
		return fmt.Errorf("scenario: axis %q needs integer values, got %v", axis, v.Num)
	}
	if f.Kind() == reflect.Uint64 {
		f.SetUint(uint64(n))
	} else {
		f.SetInt(int64(n))
	}
	return nil
}

// Point is one concrete spec of a sweep, with its coordinates along the
// declared axes (empty for an unswept spec).
type Point struct {
	Spec   Spec
	Coords []Value // aligned with the root spec's Sweep axes
}

// Expand materializes the sweep as concrete points: the cartesian product
// of the axis values, first axis outermost, each point's Sweep cleared.
func (s Spec) Expand() ([]Point, error) {
	base := s
	base.Sweep = nil
	points := []Point{{Spec: base}}
	for i, ax := range s.Sweep {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("scenario: sweep axis %q has no values", ax.Name)
		}
		// A repeated axis would silently last-write-win: only the innermost
		// occurrence would shape the point, while the outer one still
		// multiplied the sweep and mislabeled the coordinates.
		for _, prev := range s.Sweep[:i] {
			if prev.Name == ax.Name {
				return nil, fmt.Errorf("scenario: sweep axis %q declared twice", ax.Name)
			}
		}
		next := make([]Point, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				sp, err := p.Spec.with(ax.Name, v)
				if err != nil {
					return nil, err
				}
				coords := append(append([]Value(nil), p.Coords...), v)
				next = append(next, Point{Spec: sp, Coords: coords})
			}
		}
		points = next
	}
	return points, nil
}

// ParseSpec decodes a JSON spec, rejecting unknown fields so example
// files cannot silently rot.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec: %w", err)
	}
	return s, nil
}

// LoadSpec reads and parses a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}
