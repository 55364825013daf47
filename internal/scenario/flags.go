package scenario

import (
	"flag"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Flags binds a command's flag set to Spec: one flag per Spec field with
// a help tag (see Spec), so every command that builds a spec from its
// command line — amrun, amsearch, amdot — accepts the same flags with the
// same meaning. Commands differ only in the default Spec they pass.
type Flags struct {
	fs   *flag.FlagSet
	vals Spec // flag storage: the defaults, overwritten by parsed values
}

// registries maps each registry-named field type to its registry: the
// flag help lists the registered names and Apply rejects any other.
var registries = map[reflect.Type]interface {
	Help() string
	Names() []string
}{
	reflect.TypeOf(Protocol("")): Protocols,
	reflect.TypeOf(TieBreak("")): TieBreaks,
	reflect.TypeOf(Pivot("")):    Pivots,
	reflect.TypeOf(Attack("")):   Attacks,
	reflect.TypeOf(Access("")):   AccessModels,
	reflect.TypeOf(Topology("")): Topologies,
}

// NewFlags registers the spec flags on fs, each showing its field of
// defaults as the default. Fields named in omit (by json name) get no
// flag: the command decides them itself, as amsearch does the trials.
func NewFlags(fs *flag.FlagSet, defaults Spec, omit ...string) *Flags {
	f := &Flags{fs: fs, vals: defaults}
	vals := reflect.ValueOf(&f.vals).Elem()
	for _, p := range paramTable {
		if slices.Contains(omit, p.name) {
			continue
		}
		help := p.help
		if reg, ok := registries[vals.Field(p.index).Type()]; ok {
			help += ": " + reg.Help()
		}
		fs.Var(specValue{vals.Field(p.index), p.index}, p.flagName(), help)
	}
	return f
}

// Apply returns base with every explicitly set spec flag written over
// the matching field, so a -spec file stays authoritative except where
// the command line says otherwise; with the command's defaults as base
// it is the plain flag-built spec. A registry name set on the command
// line that names nothing registered fails here, before anything runs.
func (f *Flags) Apply(base Spec) (Spec, error) {
	dst := reflect.ValueOf(&base).Elem()
	var err error
	f.fs.Visit(func(fl *flag.Flag) {
		v, ok := fl.Value.(specValue)
		if !ok {
			return
		}
		if reg, named := registries[v.field.Type()]; named && err == nil {
			if name := v.field.String(); name != "" && !slices.Contains(reg.Names(), name) {
				err = fmt.Errorf("unknown -%s %q (have %s)", fl.Name, name, reg.Help())
			}
		}
		dst.Field(v.index).Set(v.field)
	})
	return base, err
}

// Args is the inverse of Apply: the flags that, applied to base, rebuild
// s — one per flag whose value differs, in Spec field order. Fields
// without a flag (rates, topology_table, metrics, sweep) are not
// rendered.
func (f *Flags) Args(s, base Spec) []string {
	sv, bv := reflect.ValueOf(s), reflect.ValueOf(base)
	var args []string
	for _, p := range paramTable {
		if f.fs.Lookup(p.flagName()) == nil {
			continue
		}
		val := formatField(sv.Field(p.index))
		if val == formatField(bv.Field(p.index)) {
			continue
		}
		if sv.Field(p.index).Kind() == reflect.Bool {
			// A bool flag takes its value only in the -name=value form.
			args = append(args, "-"+p.flagName()+"="+val)
		} else {
			args = append(args, "-"+p.flagName(), val)
		}
	}
	return args
}

// specValue is the flag.Value of one Spec field.
type specValue struct {
	field reflect.Value // addressable field of Flags.vals
	index int           // field index in Spec
}

// String is the flag's default as -h shows it: empty for a zero field,
// as flag.PrintDefaults expects of a zero default.
func (v specValue) String() string {
	if !v.field.IsValid() || v.field.IsZero() {
		return ""
	}
	return formatField(v.field)
}

func (v specValue) IsBoolFlag() bool { return v.field.Kind() == reflect.Bool }

func (v specValue) Set(s string) error {
	switch v.field.Kind() {
	case reflect.String:
		v.field.SetString(s)
	case reflect.Int:
		n, err := strconv.ParseInt(s, 0, strconv.IntSize)
		if err != nil {
			return err
		}
		v.field.SetInt(n)
	case reflect.Uint64:
		n, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return err
		}
		v.field.SetUint(n)
	case reflect.Float64:
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		v.field.SetFloat(x)
	case reflect.Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		v.field.SetBool(b)
	default:
		switch p := v.field.Addr().Interface().(type) {
		case *map[string]Value:
			m, err := ParseAttackParams(s)
			if err != nil {
				return err
			}
			*p = m
		case *map[string]float64:
			m, err := ParseTopologyParams(s)
			if err != nil {
				return err
			}
			*p = m
		default:
			return fmt.Errorf("scenario: no flag syntax for %s", v.field.Type())
		}
	}
	return nil
}

// formatField renders a flag-bound field the way its flag parses it;
// parameter maps render as name=value pairs sorted by name.
func formatField(f reflect.Value) string {
	var pairs []string
	switch m := f.Interface().(type) {
	case map[string]Value:
		for k, v := range m {
			pairs = append(pairs, k+"="+v.Text())
		}
	case map[string]float64:
		for k, v := range m {
			pairs = append(pairs, fmt.Sprintf("%s=%v", k, v))
		}
	default:
		return fmt.Sprint(m)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}
