package scenario

import (
	"strings"
	"testing"
)

func chainSpec() Spec {
	return Spec{Protocol: Chain, N: 6, T: 2, Lambda: 0.5, K: 11, Attack: AttackFork}
}

func TestBindRejectsUnknownAttackParam(t *testing.T) {
	s := chainSpec()
	s.AttackParams = map[string]Value{"no_such": {Num: 1}}
	_, err := Bind(s)
	if err == nil || !strings.Contains(err.Error(), "fork_count") {
		t.Fatalf("unknown attack param not rejected with the valid set enumerated: %v", err)
	}
}

func TestBindRejectsOutOfRangeAttackParam(t *testing.T) {
	s := chainSpec()
	s.AttackParams = map[string]Value{"fork_period": {Num: 0}}
	_, err := Bind(s)
	if err == nil || !strings.Contains(err.Error(), "range") {
		t.Fatalf("out-of-range attack param not rejected: %v", err)
	}
}

func TestBindRejectsParamsOnUnparameterizedAttack(t *testing.T) {
	s := chainSpec()
	s.Attack = AttackSilent
	s.AttackParams = map[string]Value{"fork_count": {Num: 1}}
	_, err := Bind(s)
	if err == nil || !strings.Contains(err.Error(), "takes no parameters") {
		t.Fatalf("attack_params on silent not rejected: %v", err)
	}
}

func TestBindAcceptsValidAttackParams(t *testing.T) {
	s := chainSpec()
	s.AttackParams = map[string]Value{
		"fork_period": {Num: 3},
		"target":      {Str: "first", IsStr: true},
		"withhold":    {Num: 0.5},
	}
	if _, err := Bind(s); err != nil {
		t.Fatalf("valid attack_params rejected: %v", err)
	}
}

func TestStartWithinDefaultAndOverride(t *testing.T) {
	def, ok := Attacks.Lookup(string(AttackLastMinute))
	if !ok {
		t.Fatal("last-minute not registered")
	}
	s := Spec{Attack: AttackLastMinute}
	p, err := def.ResolveParams(&s)
	if err != nil || p.StartWithin != 6 {
		t.Fatalf("preset: want StartWithin 6, got %d (%v)", p.StartWithin, err)
	}
	s.AttackParams = map[string]Value{"start_within": {Num: 12}}
	if p, err = def.ResolveParams(&s); err != nil || p.StartWithin != 12 {
		t.Fatalf("attack_params: want StartWithin 12, got %d (%v)", p.StartWithin, err)
	}
}

func TestAttackParamSweepAxis(t *testing.T) {
	ax, err := ParseAxis("attack:fork_period=1,2,4")
	if err != nil {
		t.Fatal(err)
	}
	s := chainSpec()
	s.Sweep = []Axis{ax}
	points, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("want 3 points, got %d", len(points))
	}
	for i, want := range []float64{1, 2, 4} {
		got := points[i].Spec.AttackParams["fork_period"]
		if got.IsStr || got.Num != want {
			t.Fatalf("point %d: fork_period = %+v, want %v", i, got, want)
		}
		if _, err := Bind(points[i].Spec); err != nil {
			t.Fatalf("point %d does not bind: %v", i, err)
		}
	}
	// Copy-on-write: the points must not alias one params map.
	points[0].Spec.AttackParams["fork_period"] = Value{Num: 99}
	if points[1].Spec.AttackParams["fork_period"].Num == 99 {
		t.Fatal("sweep points alias one attack_params map")
	}
}

func TestAttackParamAxisValidatedAtBind(t *testing.T) {
	ax, err := ParseAxis("attack:bogus=1")
	if err != nil {
		t.Fatalf("attack:<param> axes parse lazily, got %v", err)
	}
	s := chainSpec()
	s.Sweep = []Axis{ax}
	points, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Bind(points[0].Spec); err == nil {
		t.Fatal("unknown attack:<param> axis not rejected at Bind")
	}
}
