package scenario

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fullSpec sets every field of Spec to a non-zero value, so the
// round-trip test covers the whole schema.
func fullSpec() Spec {
	return Spec{
		Name:     "full",
		Doc:      "every field set",
		Protocol: Dag,
		N:        10, T: 3, Crashes: 1,
		Lambda: 0.5, Rates: []float64{1, 1, 1, 1, 1, 1, 1, 2, 2, 2},
		Delta: 1.5, K: 21, Rounds: 4,
		TieBreak: TieFirst, Pivot: PivotLongest, Confirm: 5,
		Attack:       AttackPrivateChain,
		AttackParams: map[string]Value{"segment": {Num: 3}, "root": {Str: "genesis", IsStr: true}},
		Inputs:       "split:4",
		Access:       AccessRoundRobin, FreshReads: true,
		Topology: TopoSmallWorld, TopologyParams: map[string]float64{"k": 2, "beta": 0.3},
		TopologyTable: [][]float64{{0, 1, 0.5}, {1, 2}},
		LinkDelay:     0.25, LinkJitter: 0.4, DelayDist: "uniform",
		StallAtSize: 30, StallFor: 2, AsyncDelayMax: 4,
		Window: 64, Checkpoint: true, // mutually exclusive at Bind; fine for the marshal round-trip
		Seed: 7, Trials: 12,
		Metrics: []string{"ok", "validity"},
		Sweep: []Axis{
			{Name: "lambda", Values: []Value{{Num: 0.25}, {Num: 1}}},
			{Name: "pivot", Values: []Value{{Str: "ghost", IsStr: true}, {Str: "longest", IsStr: true}}},
		},
	}
}

// TestSpecJSONRoundTrip marshals a fully populated spec and parses it
// back: every field must survive, including the polymorphic sweep values.
func TestSpecJSONRoundTrip(t *testing.T) {
	in := fullSpec()
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	out, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\n in: %+v\nout: %+v", in, out)
	}
}

// TestSpecRoundTripCoversEveryField guards the fixture itself: if a field
// is added to Spec and left zero in fullSpec, the round-trip test would
// pass vacuously for it. Every field must be non-zero.
func TestSpecRoundTripCoversEveryField(t *testing.T) {
	v := reflect.ValueOf(fullSpec())
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("fullSpec leaves field %s zero — the round-trip test does not cover it", typ.Field(i).Name)
		}
	}
}

// TestFlagsCoverSpec extends the fullSpec guard to the command line:
// every Spec field is either a flag or listed below as file-only, every
// sweep axis names a flag field, and fullSpec survives rendering to flags
// (Flags.Args) and parsing back. A new field with neither a help tag nor
// a fileOnly entry fails here.
func TestFlagsCoverSpec(t *testing.T) {
	fileOnly := map[string]bool{"name": true, "doc": true, "rates": true, "topology_table": true, "metrics": true, "sweep": true}
	fs := flag.NewFlagSet("render", flag.ContinueOnError)
	f := NewFlags(fs, Spec{})
	flagName := func(json string) string { return strings.ReplaceAll(json, "_", "-") }

	var want Spec // fullSpec restricted to the flag fields
	full, typ := reflect.ValueOf(fullSpec()), reflect.TypeOf(Spec{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		hasFlag := fs.Lookup(flagName(name)) != nil
		if hasFlag == fileOnly[name] {
			t.Errorf("field %s: has a flag %v, listed file-only %v — give it a help tag or list it", typ.Field(i).Name, hasFlag, fileOnly[name])
		}
		if hasFlag {
			reflect.ValueOf(&want).Elem().Field(i).Set(full.Field(i))
		}
	}
	for _, axis := range SweepAxes() {
		if !strings.HasSuffix(axis, ":<param>") && fs.Lookup(flagName(axis)) == nil {
			t.Errorf("sweep axis %q names no flag field", axis)
		}
	}

	args := f.Args(fullSpec(), Spec{})
	parse := flag.NewFlagSet("parse", flag.ContinueOnError)
	g := NewFlags(parse, Spec{})
	if err := parse.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	got, err := g.Apply(Spec{})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags round trip changed the spec:\nargs: %q\n in: %+v\nout: %+v", args, want, got)
	}
}

// TestFlagsApply: only explicitly set flags override the base (a -spec
// file), and registry names are checked when the flags are applied.
func TestFlagsApply(t *testing.T) {
	base := fullSpec()
	cases := []struct {
		args []string
		want func(*Spec) // applied to base; nil when Apply must fail
	}{
		{nil, func(*Spec) {}},
		{[]string{"-n", "3", "-fresh-reads=false", "-stall-at", "9"}, func(s *Spec) { s.N = 3; s.FreshReads = false; s.StallAtSize = 9 }},
		{[]string{"-topology-params", "m=3", "-attack-params", "withhold=2"}, func(s *Spec) {
			s.TopologyParams = map[string]float64{"m": 3}
			s.AttackParams = map[string]Value{"withhold": {Num: 2}}
		}},
		{[]string{"-access", "lottery"}, nil},
		{[]string{"-topology", "torus"}, nil},
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("apply", flag.ContinueOnError)
		f := NewFlags(fs, Spec{Protocol: Chain, N: 10})
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: parse: %v", tc.args, err)
		}
		got, err := f.Apply(base)
		if tc.want == nil {
			if err == nil {
				t.Errorf("%q: unknown registry name accepted", tc.args)
			}
			continue
		}
		want := fullSpec()
		tc.want(&want)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Apply = %+v, %v; want %+v", tc.args, got, err, want)
		}
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"protocol": "dag", "n": 4, "lamdba": 0.5}`))
	if err == nil || !strings.Contains(err.Error(), "lamdba") {
		t.Fatalf("want unknown-field error naming the typo, got %v", err)
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("lambda=0.25,0.5,1")
	if err != nil {
		t.Fatalf("ParseAxis: %v", err)
	}
	if ax.Name != "lambda" || len(ax.Values) != 3 || ax.Values[0].Num != 0.25 || ax.Values[0].IsStr {
		t.Fatalf("ParseAxis parsed %+v", ax)
	}

	ax, err = ParseAxis("pivot=ghost,longest")
	if err != nil {
		t.Fatalf("ParseAxis: %v", err)
	}
	if !ax.Values[0].IsStr || ax.Values[0].Str != "ghost" {
		t.Fatalf("ParseAxis parsed %+v", ax)
	}

	for _, bad := range []string{"lambda", "=1,2", "lambda=", "lambda=1,,2", "bogus=1"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q): want error", bad)
		}
	}
}

// TestSweepAxesAllSettable: every advertised axis must be accepted by the
// expansion machinery (with a value of the right kind).
func TestSweepAxesAllSettable(t *testing.T) {
	samples := map[string]Value{
		"protocol":    {Str: "chain", IsStr: true},
		"tiebreak":    {Str: "first", IsStr: true},
		"pivot":       {Str: "ghost", IsStr: true},
		"attack":      {Str: "silent", IsStr: true},
		"inputs":      {Str: "same", IsStr: true},
		"access":      {Str: "poisson", IsStr: true},
		"fresh_reads": {Str: "true", IsStr: true},
		"topology":    {Str: "ring", IsStr: true},
		"delay_dist":  {Str: "uniform", IsStr: true},
	}
	for _, name := range SweepAxes() {
		v, ok := samples[name]
		if !ok {
			v = Value{Num: 2} // numeric axes
		}
		s := Spec{Protocol: Dag, N: 4, Sweep: []Axis{{Name: name, Values: []Value{v}}}}
		if _, err := s.Expand(); err != nil {
			t.Errorf("axis %q advertised by SweepAxes but not settable: %v", name, err)
		}
	}
}

func TestExpandCartesianOrder(t *testing.T) {
	s := Spec{
		Protocol: Chain, N: 4,
		Sweep: []Axis{
			{Name: "lambda", Values: []Value{{Num: 0.25}, {Num: 1}}},
			{Name: "k", Values: []Value{{Num: 11}, {Num: 21}, {Num: 41}}},
		},
	}
	points, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(points) != 6 {
		t.Fatalf("want 6 points, got %d", len(points))
	}
	// First axis outermost: lambda=0.25 covers the first three points.
	want := []struct {
		lambda float64
		k      int
	}{{0.25, 11}, {0.25, 21}, {0.25, 41}, {1, 11}, {1, 21}, {1, 41}}
	for i, p := range points {
		if p.Spec.Lambda != want[i].lambda || p.Spec.K != want[i].k {
			t.Errorf("point %d: got λ=%v k=%d, want λ=%v k=%d",
				i, p.Spec.Lambda, p.Spec.K, want[i].lambda, want[i].k)
		}
		if len(p.Coords) != 2 || p.Coords[0].Num != want[i].lambda || p.Coords[1].Num != float64(want[i].k) {
			t.Errorf("point %d coords = %v", i, p.Coords)
		}
		if p.Spec.Sweep != nil {
			t.Errorf("point %d retains a sweep", i)
		}
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []Spec{
		{Protocol: Chain, N: 4, Sweep: []Axis{{Name: "lambda"}}},                                                // no values
		{Protocol: Chain, N: 4, Sweep: []Axis{{Name: "lambda", Values: []Value{{Str: "x", IsStr: true}}}}},      // string for float
		{Protocol: Chain, N: 4, Sweep: []Axis{{Name: "k", Values: []Value{{Num: 1.5}}}}},                        // non-integer for int
		{Protocol: Chain, N: 4, Sweep: []Axis{{Name: "pivot", Values: []Value{{Num: 3}}}}},                      // number for string
		{Protocol: Chain, N: 4, Sweep: []Axis{{Name: "bogus", Values: []Value{{Num: 1}}}}},                      // unknown axis
		{Protocol: Chain, N: 4, Sweep: []Axis{{Name: "fresh_reads", Values: []Value{{Str: "x", IsStr: true}}}}}, // bad bool
	}
	for i, s := range cases {
		if _, err := s.Expand(); err == nil {
			t.Errorf("case %d (%+v): want error", i, s.Sweep)
		}
	}
}

func TestValueJSON(t *testing.T) {
	var v Value
	if err := json.Unmarshal([]byte(`0.5`), &v); err != nil || v.IsStr || v.Num != 0.5 {
		t.Fatalf("number: %+v err %v", v, err)
	}
	if err := json.Unmarshal([]byte(`"ghost"`), &v); err != nil || !v.IsStr || v.Str != "ghost" {
		t.Fatalf("string: %+v err %v", v, err)
	}
	if v.Text() != "ghost" {
		t.Fatalf("Text() = %q", v.Text())
	}
	if ParseValue("1.5").Num != 1.5 || !ParseValue("x").IsStr {
		t.Fatal("ParseValue misclassifies")
	}
}

// FuzzParseSpecBind: ParseSpec then Bind, at every sweep point, never
// panics on any input. Bind has no resource budget yet, so the body skips
// specs whose roster, decision depth or sweep would bind in unbounded
// memory.
func FuzzParseSpecBind(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			return
		}
		points := 1
		for _, ax := range spec.Sweep {
			if points *= len(ax.Values); points > 64 {
				return
			}
		}
		expanded, err := spec.Expand()
		if err != nil {
			return
		}
		for _, pt := range expanded {
			if pt.Spec.N > 64 || pt.Spec.K > 1000 {
				continue
			}
			Bind(pt.Spec)
		}
	})
}

// FuzzParseAxisAttackParams fuzzes the CLI spellings of a sweep axis
// (ParseAxis) and of attack parameters (ParseAttackParams), seeded from
// the axes and parameters of examples/scenarios/*.json. Whatever parses
// is applied to a small spec of the fuzzed protocol and attack, which is
// expanded and its first point bound. Errors are fine; a panic or a hang
// is not.
func FuzzParseAxisAttackParams(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, p := range paths {
		spec, err := LoadSpec(p)
		if err != nil {
			f.Fatal(err)
		}
		var params []string
		for name, v := range spec.AttackParams {
			params = append(params, name+"="+v.Text())
		}
		sort.Strings(params)
		axes := []string{"n=4,8"}
		for _, ax := range spec.Sweep {
			vals := make([]string, len(ax.Values))
			for i, v := range ax.Values {
				vals[i] = v.Text()
			}
			axes = append(axes, ax.Name+"="+strings.Join(vals, ","))
		}
		for _, axis := range axes {
			f.Add(axis, strings.Join(params, ","), string(spec.Protocol), string(spec.Attack))
		}
	}
	f.Fuzz(func(t *testing.T, axis, params, protocol, attack string) {
		spec := Spec{Protocol: Protocol(protocol), Attack: Attack(attack), N: 8, T: 2, Lambda: 1, K: 15, Trials: 1}
		if ax, err := ParseAxis(axis); err == nil {
			spec.Sweep = []Axis{ax}
		}
		if ap, err := ParseAttackParams(params); err == nil {
			spec.AttackParams = ap
		}
		points, err := spec.Expand()
		if err != nil || len(points) == 0 {
			return
		}
		if pt := points[0].Spec; pt.N <= 64 && pt.K <= 1000 {
			Bind(pt)
		}
	})
}
