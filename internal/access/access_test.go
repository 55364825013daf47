package access

import (
	"math"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func TestRoundClockOrdering(t *testing.T) {
	rng := xrand.New(1, 1)
	rc := NewRoundClock(rng, 8, 1.0)
	for r := 1; r <= 5; r++ {
		start := rc.RoundStart(r)
		next := rc.RoundStart(r + 1)
		for i := 0; i < 8; i++ {
			id := appendmem.NodeID(i)
			at := rc.AppendTime(id, r)
			rt := rc.ReadTime(id, r)
			if at < start || at >= next {
				t.Fatalf("append time %v outside round %d", at, r)
			}
			if rt < start || rt >= next {
				t.Fatalf("read time %v outside round %d", rt, r)
			}
			// Every correct append of round r precedes every read of round r.
			for j := 0; j < 8; j++ {
				if at >= rc.ReadTime(appendmem.NodeID(j), r) {
					t.Fatalf("round-%d append of %d not before read of %d", r, i, j)
				}
			}
		}
	}
}

func TestRoundClockReadsDiffer(t *testing.T) {
	// The residual asynchrony must exist: not all reads coincide.
	rng := xrand.New(2, 2)
	rc := NewRoundClock(rng, 8, 1.0)
	distinct := map[sim.Time]bool{}
	for i := 0; i < 8; i++ {
		distinct[rc.ReadTime(appendmem.NodeID(i), 1)] = true
	}
	if len(distinct) < 2 {
		t.Fatal("all nodes read at the same instant; Byzantine split impossible")
	}
}

func TestReadDeadline(t *testing.T) {
	rng := xrand.New(3, 3)
	rc := NewRoundClock(rng, 5, 2.0)
	dl := rc.ReadDeadline(1)
	for i := 0; i < 5; i++ {
		if rc.ReadTime(appendmem.NodeID(i), 1) > dl {
			t.Fatal("deadline before some read")
		}
	}
}

func TestRoundClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad params did not panic")
		}
	}()
	NewRoundClock(xrand.New(1, 1), 0, 1)
}

// newAuthority returns an Authority Reset to the given discipline.
func newAuthority(s *sim.Sim, rng *xrand.PCG, n int, lambda, delta float64, rates []float64, handle func(Grant)) *Authority {
	a := &Authority{}
	a.Reset(s, rng, n, lambda, delta, rates, handle)
	return a
}

func TestPoissonAuthorityRate(t *testing.T) {
	const (
		n       = 10
		lambda  = 0.5
		delta   = 1.0
		horizon = 2000.0
	)
	s := sim.New()
	rng := xrand.New(4, 4)
	counts := make([]int, n)
	a := newAuthority(s, rng, n, lambda, delta, nil, func(g Grant) {
		counts[g.Node]++
	})
	a.Start()
	s.RunUntil(sim.Time(horizon))
	a.Stop()

	perNode := make([]float64, n)
	for i, c := range counts {
		perNode[i] = float64(c)
	}
	sum := stats.Summarize(perNode)
	want := lambda * horizon / delta
	if math.Abs(sum.Mean-want) > 0.05*want {
		t.Fatalf("per-node grant mean = %v, want about %v", sum.Mean, want)
	}
	// Poisson: variance ≈ mean across nodes.
	if sum.Variance > 3*want || sum.Variance < want/3 {
		t.Fatalf("per-node variance = %v, want near %v", sum.Variance, want)
	}
}

func TestPoissonAuthoritySeqTotalOrder(t *testing.T) {
	s := sim.New()
	rng := xrand.New(5, 5)
	var grants []Grant
	a := newAuthority(s, rng, 3, 1, 1, nil, func(g Grant) { grants = append(grants, g) })
	a.Start()
	s.RunUntil(100)
	a.Stop()
	if len(grants) < 100 {
		t.Fatalf("only %d grants in 100Δ at aggregate rate 3", len(grants))
	}
	for i, g := range grants {
		if g.Seq != i {
			t.Fatalf("grant %d has seq %d", i, g.Seq)
		}
		if i > 0 && g.At < grants[i-1].At {
			t.Fatal("grant times not monotone")
		}
	}
	if a.Issued() != len(grants) {
		t.Fatalf("Issued() = %d, want %d", a.Issued(), len(grants))
	}
}

// checkStop runs an authority that calls Stop at its stop-th grant and
// checks that no grant follows: Stop must halt rescheduling, so the drained
// simulator terminates.
func checkStop(t *testing.T, rng *xrand.PCG, rates []float64, stop int) {
	t.Helper()
	s := sim.New()
	count := 0
	var a *Authority
	a = newAuthority(s, rng, 2, 1, 1, rates, func(Grant) {
		count++
		if count == stop {
			a.Stop()
		}
	})
	a.Start()
	s.Run()
	if count != stop {
		t.Fatalf("grants after Stop: count = %d, want %d", count, stop)
	}
}

func TestPoissonAuthorityStop(t *testing.T) {
	checkStop(t, xrand.New(6, 6), nil, 5)
	checkStop(t, xrand.New(6, 6), []float64{1, 2}, 4) // weighted
}

func TestRoundRobinStop(t *testing.T) { checkStop(t, nil, nil, 3) }

func TestPoissonAuthorityDeterministic(t *testing.T) {
	run := func() []Grant {
		s := sim.New()
		rng := xrand.New(7, 7)
		var grants []Grant
		a := newAuthority(s, rng, 4, 2, 1, nil, func(g Grant) { grants = append(grants, g) })
		a.Start()
		s.RunUntil(50)
		a.Stop()
		return grants
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different grant counts for same seed")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grant %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPoissonInterArrivalExponential(t *testing.T) {
	s := sim.New()
	rng := xrand.New(8, 8)
	var times []float64
	a := newAuthority(s, rng, 5, 1, 1, nil, func(g Grant) { times = append(times, float64(g.At)) })
	a.Start()
	s.RunUntil(4000)
	a.Stop()
	gaps := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps[i-1] = times[i] - times[i-1]
	}
	sum := stats.Summarize(gaps)
	want := 1.0 / 5.0 // merged rate nλ/Δ = 5
	if math.Abs(sum.Mean-want) > 0.05*want {
		t.Fatalf("mean gap = %v, want %v", sum.Mean, want)
	}
	// Exponential: stddev ≈ mean.
	if math.Abs(sum.Stddev()-want) > 0.15*want {
		t.Fatalf("gap stddev = %v, want about %v", sum.Stddev(), want)
	}
}

func TestRoundRobinAuthorityCadence(t *testing.T) {
	s := sim.New()
	var grants []Grant
	a := newAuthority(s, nil, 4, 0.5, 1.0, nil, func(g Grant) { grants = append(grants, g) })
	a.Start()
	s.RunUntil(20)
	a.Stop()
	// gap = Δ/(nλ) = 0.5; expect ~40 grants.
	if len(grants) < 39 || len(grants) > 41 {
		t.Fatalf("grants = %d, want about 40", len(grants))
	}
	for i, g := range grants {
		if int(g.Node) != i%4 {
			t.Fatalf("grant %d to node %d, want %d", i, g.Node, i%4)
		}
		if g.Seq != i {
			t.Fatalf("seq %d at %d", g.Seq, i)
		}
	}
	// Perfectly even spacing.
	for i := 1; i < len(grants); i++ {
		gap := grants[i].At - grants[i-1].At
		if gap < 0.499 || gap > 0.501 {
			t.Fatalf("uneven gap %v", gap)
		}
	}
	if a.Issued() != len(grants) {
		t.Fatal("Issued mismatch")
	}
}

func TestWeightedPoissonAuthorityShares(t *testing.T) {
	s := sim.New()
	rng := xrand.New(13, 13)
	rates := []float64{0.2, 0.8, 1.0} // total 2.0 per Δ
	counts := make([]int, 3)
	a := newAuthority(s, rng, 3, 0, 1.0, rates, func(g Grant) { counts[g.Node]++ })
	a.Start()
	s.RunUntil(2000)
	a.Stop()
	total := counts[0] + counts[1] + counts[2]
	if total < 3800 || total > 4200 {
		t.Fatalf("total grants = %d, want about 4000", total)
	}
	for i, r := range rates {
		want := r / 2.0
		got := float64(counts[i]) / float64(total)
		if got < want-0.03 || got > want+0.03 {
			t.Fatalf("node %d share = %v, want %v", i, got, want)
		}
	}
}

// TestAuthorityWeightedDrawOrder pins the weighted discipline's rng order
// against a clone of its stream: one exponential wait, then per grant a
// discarded Intn(n), the Pick over the rates and the next wait. The
// harness goldens depend on this order.
func TestAuthorityWeightedDrawOrder(t *testing.T) {
	rates := []float64{0.5, 1.5, 1.0, 3.0}
	rng := xrand.New(21, 21)
	clone := xrand.Restore(rng.State())
	s := sim.New()
	var grants []Grant
	a := newAuthority(s, rng, len(rates), 0, 2.0, rates, func(g Grant) { grants = append(grants, g) })
	a.Start()
	s.RunUntil(50)
	a.Stop()
	if len(grants) < 50 {
		t.Fatalf("only %d grants", len(grants))
	}
	rate := (0.5 + 1.5 + 1.0 + 3.0) / 2.0
	at := sim.Time(clone.Exp(rate))
	for i, g := range grants {
		clone.Intn(len(rates))
		node := appendmem.NodeID(clone.Pick(rates))
		if g.Node != node || g.At != at {
			t.Fatalf("grant %d = node %d at %v, want node %d at %v", i, g.Node, g.At, node, at)
		}
		at += sim.Time(clone.Exp(rate))
	}
}

// TestAuthorityResetMatchesFresh re-arms one Authority through every
// discipline and back; each stream must match a fresh Authority's.
func TestAuthorityResetMatchesFresh(t *testing.T) {
	const want = 200
	first := func(a *Authority, s *sim.Sim, rng *xrand.PCG, rates []float64) []Grant {
		var got []Grant
		a.Reset(s, rng, 4, 0.5, 1.0, rates, func(g Grant) {
			got = append(got, g)
			if len(got) == want {
				a.Stop()
				s.Stop()
			}
		})
		a.Start()
		s.Run()
		return got
	}
	phases := []struct {
		name  string
		rng   func() *xrand.PCG
		rates []float64
	}{
		{"uniform", func() *xrand.PCG { return xrand.New(9, 9) }, nil},
		{"round-robin", func() *xrand.PCG { return nil }, nil},
		{"weighted", func() *xrand.PCG { return xrand.New(10, 10) }, []float64{0.2, 0.3, 0.5, 1.0}},
		{"uniform again", func() *xrand.PCG { return xrand.New(11, 11) }, nil},
	}
	var reused Authority
	s := sim.New()
	for _, p := range phases {
		s.Reset()
		got := first(&reused, s, p.rng(), p.rates)
		fresh := first(&Authority{}, sim.New(), p.rng(), p.rates)
		if len(got) != want || len(fresh) != want {
			t.Fatalf("%s: %d and %d grants, want %d", p.name, len(got), len(fresh), want)
		}
		for i := range got {
			if got[i] != fresh[i] {
				t.Fatalf("%s: grant %d = %+v after Reset, %+v fresh", p.name, i, got[i], fresh[i])
			}
		}
	}
}

// resetCase is one set of Reset inputs.
type resetCase struct {
	name          string
	rng           *xrand.PCG
	n             int
	lambda, delta float64
	rates         []float64
}

// resetPanics checks that each case's Reset panics.
func resetPanics(t *testing.T, cases []resetCase) {
	t.Helper()
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			var a Authority
			a.Reset(sim.New(), c.rng, c.n, c.lambda, c.delta, c.rates, nil)
		}()
	}
}

func TestPoissonAuthorityPanics(t *testing.T) {
	resetPanics(t, []resetCase{
		{"no nodes", xrand.New(1, 1), 0, 1, 1, nil},
		{"zero lambda", xrand.New(1, 1), 2, 0, 1, nil},
		{"zero delta", xrand.New(1, 1), 2, 1, 0, nil},
	})
}

func TestRoundRobinPanics(t *testing.T) {
	resetPanics(t, []resetCase{
		{"no nodes", nil, 0, 1, 1, nil},
		{"zero lambda", nil, 2, 0, 1, nil},
		{"rates without rng", nil, 2, 0, 1, []float64{1, 1}},
	})
}

func TestWeightedPoissonAuthorityPanics(t *testing.T) {
	resetPanics(t, []resetCase{
		{"empty rates", xrand.New(1, 1), 0, 0, 1, []float64{}},
		{"non-positive rate", xrand.New(1, 1), 2, 0, 1, []float64{1, 0}},
		{"zero delta", xrand.New(1, 1), 1, 0, 0, []float64{1}},
		{"rate count", xrand.New(1, 1), 3, 0, 1, []float64{1, 1}},
	})
}
