package bivalence

import (
	"strings"
	"testing"
)

func TestApplyAppendAndSeq(t *testing.T) {
	p := NewThresholdVote(2, DecideMajority)
	var view []Msg
	c := Initial(p, []int{1, 0})
	c1 := Apply(p, c, 0, &view)
	if c1 == c {
		t.Fatal("append left the configuration unchanged")
	}
	if mem := c1.View(nil); len(mem) != 1 || mem[0] != (Msg{Author: 0, Seq: 0, Value: 1}) {
		t.Fatalf("mem = %v", mem)
	}
	c2 := Apply(p, c1, 1, &view)
	c2 = Apply(p, c2, 0, &view) // node 0 reads: the memory stays as is
	want := []Msg{{Author: 0, Seq: 0, Value: 1}, {Author: 1, Seq: 0, Value: 0}}
	if mem := c2.View(nil); len(mem) != 2 || mem[0] != want[0] || mem[1] != want[1] {
		t.Fatalf("mem = %v, want %v", mem, want)
	}
	// Original config untouched (value semantics).
	if len(c.View(nil)) != 0 {
		t.Fatal("Apply mutated the input configuration")
	}
}

func TestApplyNoOpRead(t *testing.T) {
	p := NewThresholdVote(2, DecideMajority)
	var view []Msg
	c := Initial(p, []int{1, 0})
	c1 := Apply(p, c, 0, &view) // 0 appends
	c2 := Apply(p, c1, 0, &view)
	// Node 0 now reads; only its own append is visible (< θ=2): state
	// unchanged → property (b) self-loop.
	if c3 := Apply(p, c2, 0, &view); c3 != c2 {
		t.Fatal("read below threshold changed the configuration")
	}
}

func TestDecidedNodesHalt(t *testing.T) {
	p := NewThresholdVote(1, DecideMajority)
	var view []Msg
	c := Initial(p, []int{1, 1})
	c = Apply(p, c, 0, &view) // append
	c = Apply(p, c, 0, &view) // read, sees 1 author >= θ=1 → decides
	if !c.States[0].Decided || c.States[0].Decision != 1 {
		t.Fatalf("state = %+v", c.States[0])
	}
	if c2 := Apply(p, c, 0, &view); c2 != c {
		t.Fatal("decided node still takes effective steps")
	}
}

func TestKeyIgnoresCrossRegisterOrder(t *testing.T) {
	// Two schedules: node 0 appends then node 1, and vice versa. The
	// configurations must be equal — the append memory cannot order
	// appends from different nodes.
	p := NewThresholdVote(2, DecideMajority)
	var view []Msg
	c0 := Initial(p, []int{1, 0})
	a := Apply(p, Apply(p, c0, 0, &view), 1, &view)
	b := Apply(p, Apply(p, c0, 1, &view), 0, &view)
	if a != b {
		t.Fatalf("append order leaked into configuration:\n%+v\n%+v", a, b)
	}
}

func TestExploreCompleteAndValency(t *testing.T) {
	p := NewThresholdVote(1, DecideMajority)
	g := Explore(p, Initial(p, []int{0, 1}), 100000)
	if g.Truncated() {
		t.Fatal("tiny graph truncated")
	}
	if !g.Bivalent(g.Root()) {
		t.Fatal("θ=1 with split inputs must be bivalent (each node can decide its own value first)")
	}
}

func TestUnanimousInputsUnivalent(t *testing.T) {
	p := NewThresholdVote(1, DecideMajority)
	g := Explore(p, Initial(p, []int{1, 1}), 100000)
	if g.Bivalent(g.Root()) {
		t.Fatal("unanimous inputs produced a bivalent initial configuration")
	}
	if !g.DecisionReached(1) || g.DecisionReached(0) {
		t.Fatal("validity broken on unanimous inputs")
	}
}

func TestAgreementViolationFound(t *testing.T) {
	// θ=1: both nodes can decide their own value before seeing the other.
	p := NewThresholdVote(1, DecideMajority)
	g := Explore(p, Initial(p, []int{0, 1}), 100000)
	if g.AgreementViolation() < 0 {
		t.Fatal("known agreement violation not found")
	}
}

func TestTerminationViolationForWaitAll(t *testing.T) {
	// θ=n: if one node is silent the others wait forever.
	p := NewThresholdVote(3, DecideMajority)
	g := Explore(p, Initial(p, []int{0, 1, 1}), 200000)
	found := false
	for v := 0; v < 3; v++ {
		if g.TerminationViolation(v) >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("wait-for-all protocol passed 1-resilient termination")
	}
}

func TestNoFalseTerminationViolation(t *testing.T) {
	// θ=1 decides after its own append: no v-free computation can stall
	// an undecided correct node forever.
	p := NewThresholdVote(1, DecideMajority)
	g := Explore(p, Initial(p, []int{0, 1}), 100000)
	for v := 0; v < 2; v++ {
		if i := g.TerminationViolation(v); i >= 0 {
			t.Fatalf("false termination violation at config %d with faulty %d", i, v)
		}
	}
}

func TestExtendBivalence(t *testing.T) {
	// Lemma 2.3 on a concrete bivalent configuration.
	p := &RetryVote{N: 3}
	g := Explore(p, Initial(p, []int{0, 1, 1}), 30000)
	if !g.Bivalent(g.Root()) {
		t.Fatal("root not bivalent")
	}
	for node := 0; node < 3; node++ {
		path, ok := g.ExtendBivalence(g.Root(), node)
		if !ok {
			t.Fatalf("no bivalent extension with a step of node %d", node)
		}
		if len(path) < 1 || !g.Bivalent(path[len(path)-1]) {
			t.Fatalf("extension path does not end bivalent: %v", path)
		}
	}
}

func TestNonDecidingSchedule(t *testing.T) {
	// Theorem 2.1's construction on the FLP-style RetryVote protocol: a
	// schedule prefix in which every node steps repeatedly and every
	// configuration stays bivalent and undecided.
	p := &RetryVote{N: 3}
	g := Explore(p, Initial(p, []int{0, 1, 1}), 30000)
	if !g.Bivalent(g.Root()) {
		t.Fatal("RetryVote root not bivalent for split inputs")
	}
	trace, ok := g.NonDecidingSchedule(g.Root(), 4)
	if !ok {
		t.Fatal("non-deciding schedule construction got stuck (falsifies Lemma 2.3)")
	}
	if len(trace) < 5 {
		t.Fatalf("suspiciously short schedule: %v", trace)
	}
	for _, i := range trace {
		if !g.Bivalent(i) {
			t.Fatalf("schedule visited a univalent configuration %d", i)
		}
		for _, s := range g.Config(i).States {
			if s.Decided {
				t.Fatal("schedule visited a decided configuration")
			}
		}
	}
}

func TestRetryVoteValidityAndDecidability(t *testing.T) {
	p := &RetryVote{N: 3}
	// Unanimous inputs: only that value is ever decided.
	g1 := Explore(p, Initial(p, []int{1, 1, 1}), 30000)
	if g1.DecisionReached(0) || !g1.DecisionReached(1) {
		t.Fatal("RetryVote violates validity on unanimous 1s")
	}
	g0 := Explore(p, Initial(p, []int{0, 0, 0}), 30000)
	if g0.DecisionReached(1) || !g0.DecisionReached(0) {
		t.Fatal("RetryVote violates validity on unanimous 0s")
	}
	// Split inputs: both decisions reachable (bivalent), so the protocol
	// does decide under some schedules — the impossibility is about ALL
	// schedules, not about never deciding.
	g := Explore(p, Initial(p, []int{0, 1, 1}), 30000)
	if !g.DecisionReached(0) || !g.DecisionReached(1) {
		t.Fatal("RetryVote never decides under split inputs")
	}
}

// The executable Theorem 2.1: every member of the candidate family fails
// at least one consensus property, for n = 2, 3 and 4, exhaustively. The
// verdicts and configuration counts are pinned exactly: amcheck and E1
// print them, so any change to the explorer's deduplication shows here.
// Below the wait-for-all threshold a member breaks agreement from a
// bivalent initial configuration; at θ = n it breaks termination.
func TestTheoremTwoOneOverFamily(t *testing.T) {
	pinned := []struct {
		n       int
		configs []int // per Family(n) member, in Family order
	}{
		{2, []int{40, 40, 40, 28, 28, 28}},
		{3, []int{300, 288, 282, 244, 232, 222, 120, 120, 120}},
		{4, []int{2416, 2176, 2032, 2176, 1936, 1744, 1280, 1248, 1096, 496, 496, 496}},
	}
	for _, pin := range pinned {
		family := Family(pin.n)
		if len(family) != len(pin.configs) {
			t.Fatalf("n=%d: %d members, want %d", pin.n, len(family), len(pin.configs))
		}
		for i, p := range family {
			waitAll := p.(*ThresholdVote).Theta == pin.n
			want := Verdict{
				Protocol: p.Name(), N: pin.n,
				Agreement: waitAll, Validity: true, Termination: !waitAll,
				BivalentInitial: !waitAll, Configs: pin.configs[i],
			}
			if v := CheckTheorem(p, pin.n, 2000000); v != want {
				t.Errorf("n=%d: got %+v\nwant %+v", pin.n, v, want)
			}
			if want.OK() {
				t.Fatalf("n=%d: %s pinned as solving 1-resilient consensus — impossibility violated", pin.n, want.Protocol)
			}
		}
	}
}

// The retry-vote exploration is infinite; E1b, amcheck -retry and the
// impossibility example print its truncated size and schedule lengths.
func TestRetryVotePinnedCounts(t *testing.T) {
	p := &RetryVote{N: 3}
	for _, tc := range []struct{ bound, size int }{{30000, 30001}, {300000, 300001}} {
		g := Explore(p, Initial(p, []int{0, 1, 1}), tc.bound)
		if g.Size() != tc.size || !g.Truncated() || !g.Bivalent(g.Root()) {
			t.Errorf("bound %d: size %d truncated %v bivalent root %v, want %d true true",
				tc.bound, g.Size(), g.Truncated(), g.Bivalent(g.Root()), tc.size)
		}
		if tc.bound != 30000 {
			continue
		}
		for _, sc := range []struct{ cycles, length int }{{4, 15}, {5, 19}, {6, 22}} {
			trace, ok := g.NonDecidingSchedule(g.Root(), sc.cycles)
			if !ok || len(trace) != sc.length {
				t.Errorf("%d cycles: ok=%v, %d configurations, want true, %d", sc.cycles, ok, len(trace), sc.length)
			}
		}
	}
}

func TestFamilyShapes(t *testing.T) {
	// Below-threshold members break agreement with a bivalent initial
	// configuration; the wait-for-all members break termination instead.
	for _, p := range Family(3) {
		tv := p.(*ThresholdVote)
		v := CheckTheorem(p, 3, 300000)
		if tv.Theta < 3 {
			if v.Agreement {
				t.Errorf("%s: agreement unexpectedly holds", v.Protocol)
			}
			if !v.BivalentInitial {
				t.Errorf("%s: no bivalent initial configuration found", v.Protocol)
			}
		} else {
			if !v.Agreement {
				t.Errorf("%s: agreement fails for wait-all", v.Protocol)
			}
			if v.Termination {
				t.Errorf("%s: termination unexpectedly holds", v.Protocol)
			}
		}
		if !v.Validity {
			t.Errorf("%s: validity fails (decision functions respect unanimity)", v.Protocol)
		}
	}
}

func TestExploreTruncation(t *testing.T) {
	p := NewThresholdVote(3, DecideMajority)
	g := Explore(p, Initial(p, []int{0, 1, 1}), 5)
	if !g.Truncated() {
		t.Fatal("bound of 5 configs not reported as truncation")
	}
	// Truncated graphs refuse unsound termination verdicts.
	if g.TerminationViolation(0) != -1 {
		t.Fatal("truncated graph returned a termination verdict")
	}
}

func TestDotExport(t *testing.T) {
	p := NewThresholdVote(1, DecideMajority) // bivalent root: orange appears
	g := Explore(p, Initial(p, []int{0, 1}), 100000)
	out := g.Dot(50)
	for _, want := range []string{"digraph computation", "c0", "orange", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("dot missing %q", want)
		}
	}
	// Bounded output respects the cap.
	small := g.Dot(3)
	if strings.Count(small, "[label=\"#") > 3 {
		t.Error("dot exceeded maxConfigs")
	}
}

// Exploration allocates when its flat arrays and its map grow, never per
// configuration: the 30,001-configuration retry-vote graph stays within a
// budget that any per-configuration allocation would exceed thirtyfold.
func TestExploreAllocBudget(t *testing.T) {
	p := &RetryVote{N: 3}
	c0 := Initial(p, []int{0, 1, 1})
	allocs := testing.AllocsPerRun(3, func() { Explore(p, c0, 30000) })
	t.Logf("%.0f allocations", allocs)
	if allocs > 1000 {
		t.Fatalf("exploring retry-vote (n=3, bound 30000) took %.0f allocations, budget 1000", allocs)
	}
}
