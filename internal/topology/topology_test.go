package topology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/xrand"
)

// edgeSet collects the undirected edge list for comparisons.
func edgeSet(g *Graph) map[[2]int]float64 {
	out := map[[2]int]float64{}
	g.Edges(func(u, v int, lat float64) bool {
		out[[2]int{u, v}] = lat
		return true
	})
	return out
}

func TestCompleteShape(t *testing.T) {
	g := Complete(5, 0.25)
	if !g.IsComplete() || g.N() != 5 || g.NumEdges() != 10 || g.HopDiameter() != 1 {
		t.Fatalf("complete: n=%d edges=%d diam=%d", g.N(), g.NumEdges(), g.HopDiameter())
	}
	for i := 0; i < 5; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("degree(%d) = %d", i, g.Degree(i))
		}
	}
	if lat, ok := g.Link(1, 3); !ok || lat != 0.25 {
		t.Fatalf("Link(1,3) = %v, %v", lat, ok)
	}
	if _, ok := g.Link(2, 2); ok {
		t.Fatal("self-loop reported in complete graph")
	}
	count := 0
	g.Neighbors(2, func(j int, lat float64) bool {
		if j == 2 || lat != 0.25 {
			t.Fatalf("neighbor %d lat %v", j, lat)
		}
		count++
		return true
	})
	if count != 4 {
		t.Fatalf("neighbor count = %d", count)
	}
}

func TestRingShape(t *testing.T) {
	g := Ring(10, 2, 1)
	if g.NumEdges() != 20 || !g.Connected() {
		t.Fatalf("ring: edges=%d connected=%v", g.NumEdges(), g.Connected())
	}
	for i := 0; i < 10; i++ {
		if g.Degree(i) != 4 {
			t.Fatalf("degree(%d) = %d", i, g.Degree(i))
		}
	}
	// Ring(n, 1) diameter is floor(n/2).
	if d := Ring(10, 1, 1).HopDiameter(); d != 5 {
		t.Fatalf("ring k=1 diameter = %d, want 5", d)
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(9, 3, 1)
	if g.NumEdges() != 12 || !g.Connected() || g.HopDiameter() != 4 {
		t.Fatalf("3x3 grid: edges=%d connected=%v diam=%d", g.NumEdges(), g.Connected(), g.HopDiameter())
	}
	if g.Degree(4) != 4 || g.Degree(0) != 2 {
		t.Fatalf("grid degrees: center=%d corner=%d", g.Degree(4), g.Degree(0))
	}
	// Partial last row stays connected.
	if p := Grid(7, 3, 1); !p.Connected() || p.Degree(6) != 1 {
		t.Fatalf("partial grid: connected=%v deg(6)=%d", p.Connected(), p.Degree(6))
	}
}

func TestWattsStrogatz(t *testing.T) {
	n, k := 50, 2
	g := WattsStrogatz(xrand.New(7, 1), n, k, 0.2, 1)
	// Rewiring preserves the edge count.
	if g.NumEdges() != n*k {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), n*k)
	}
	// beta=0 is exactly the ring lattice.
	lattice := edgeSet(Ring(n, k, 1))
	if got := edgeSet(WattsStrogatz(xrand.New(7, 1), n, k, 0, 1)); len(got) != len(lattice) {
		t.Fatalf("beta=0 edge count %d != lattice %d", len(got), len(lattice))
	} else {
		for e := range lattice {
			if _, ok := got[e]; !ok {
				t.Fatalf("beta=0 lost lattice edge %v", e)
			}
		}
	}
	// Same seed, same graph; different seed, (almost surely) different.
	a := edgeSet(WattsStrogatz(xrand.New(3, 9), n, k, 0.5, 1))
	b := edgeSet(WattsStrogatz(xrand.New(3, 9), n, k, 0.5, 1))
	if len(a) != len(b) {
		t.Fatal("same seed produced different graphs")
	}
	for e := range a {
		if _, ok := b[e]; !ok {
			t.Fatalf("same seed produced different graphs at %v", e)
		}
	}
	c := edgeSet(WattsStrogatz(xrand.New(4, 9), n, k, 0.5, 1))
	same := 0
	for e := range a {
		if _, ok := c[e]; ok {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical rewirings")
	}
	// Rewiring collapses the lattice diameter.
	if dl, ds := Ring(100, 2, 1).HopDiameter(), WattsStrogatz(xrand.New(1, 1), 100, 2, 0.3, 1).HopDiameter(); ds >= dl {
		t.Fatalf("small-world diameter %d not below lattice %d", ds, dl)
	}
}

func TestBarabasiAlbert(t *testing.T) {
	n, m := 60, 2
	g := BarabasiAlbert(xrand.New(5, 5), n, m, 1)
	wantEdges := m*(m+1)/2 + (n-m-1)*m
	if g.NumEdges() != wantEdges || !g.Connected() {
		t.Fatalf("ba: edges=%d want %d connected=%v", g.NumEdges(), wantEdges, g.Connected())
	}
	// Preferential attachment produces hubs: the max degree clearly
	// exceeds the attachment count.
	maxDeg := 0
	for i := 0; i < n; i++ {
		if g.Degree(i) < m {
			t.Fatalf("degree(%d) = %d < m", i, g.Degree(i))
		}
		if g.Degree(i) > maxDeg {
			maxDeg = g.Degree(i)
		}
	}
	if maxDeg < 3*m {
		t.Fatalf("max degree %d shows no hub", maxDeg)
	}
}

func TestFromTable(t *testing.T) {
	g, err := FromTable(4, []Link{{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() || g.NumEdges() != 3 {
		t.Fatalf("table graph: connected=%v edges=%d", g.Connected(), g.NumEdges())
	}
	if lat, ok := g.Link(2, 1); !ok || lat != 0.2 {
		t.Fatalf("Link(2,1) = %v, %v", lat, ok)
	}
	for _, bad := range [][]Link{
		{{0, 4, 1}},            // out of range
		{{1, 1, 1}},            // self-loop
		{{0, 1, 0}},            // non-positive latency
		{{0, 1, 1}, {1, 0, 2}}, // duplicate (reversed)
	} {
		if _, err := FromTable(4, bad); err == nil {
			t.Fatalf("FromTable accepted %v", bad)
		}
	}
}

func TestTableLinks(t *testing.T) {
	links, err := TableLinks([][]float64{{0, 1, 0.5}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Link{{0, 1, 0.5}, {1, 2, 1}}; !reflect.DeepEqual(links, want) {
		t.Fatalf("TableLinks = %v, want %v (omitted latency defaults to 1)", links, want)
	}
	for _, bad := range [][][]float64{
		{{0}},          // one element
		{{0, 1, 1, 1}}, // four elements
		{{0.5, 1}},     // non-integer endpoint
		{{0, 1.5, 1}},  // non-integer endpoint
	} {
		if _, err := TableLinks(bad); err == nil {
			t.Fatalf("TableLinks accepted %v", bad)
		}
	}
}

func TestDisconnected(t *testing.T) {
	g, err := FromTable(4, []Link{{0, 1, 1}, {2, 3, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Connected() || g.HopDiameter() != -1 {
		t.Fatalf("disconnected graph: connected=%v diam=%d", g.Connected(), g.HopDiameter())
	}
}

func TestPathLatencies(t *testing.T) {
	// 0 -1- 1 -1- 2 with a slow shortcut 0 -3- 2: Dijkstra must take the
	// two-hop path (cost 2) over the direct link (cost 3).
	g, err := FromTable(3, []Link{{0, 1, 1}, {1, 2, 1}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	dist, prev := g.PathLatencies(0)
	if dist[2] != 2 || prev[2] != 1 || prev[1] != 0 {
		t.Fatalf("dist=%v prev=%v", dist, prev)
	}
	// Unreachable nodes stay at -1.
	d, err := FromTable(3, []Link{{0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if dist, _ := d.PathLatencies(0); dist[2] != -1 {
		t.Fatalf("unreachable dist = %v", dist[2])
	}
}

func TestDelayModels(t *testing.T) {
	rng := xrand.New(11, 3)
	base := 0.4
	if d := (DelayModel{}).Sample(base, rng); d != base {
		t.Fatalf("fixed sample %v != base", d)
	}
	uni := DelayModel{Kind: DelayUniform, Jitter: 0.25}
	sum := 0.0
	for i := 0; i < 4000; i++ {
		d := uni.Sample(base, rng)
		if d < base*0.75 || d > base*1.25 {
			t.Fatalf("uniform sample %v outside [%v, %v]", d, base*0.75, base*1.25)
		}
		sum += d
	}
	if mean := sum / 4000; math.Abs(mean-base) > 0.01 {
		t.Fatalf("uniform mean %v far from base %v", mean, base)
	}
	lt := DelayModel{Kind: DelayLongTail}
	sum, maxD := 0.0, 0.0
	for i := 0; i < 20000; i++ {
		d := lt.Sample(base, rng)
		if d < base*0.5 || d > base*(0.5+longTailCap/4+1) {
			t.Fatalf("long-tail sample %v out of range", d)
		}
		sum += d
		if d > maxD {
			maxD = d
		}
	}
	// Mean-preserving (within sampling noise of the truncated Pareto)
	// and actually long-tailed.
	if mean := sum / 20000; math.Abs(mean-base) > 0.05*base {
		t.Fatalf("long-tail mean %v far from base %v", mean, base)
	}
	if maxD < 2*base {
		t.Fatalf("long-tail max %v shows no tail", maxD)
	}
}

func TestParseDelayKind(t *testing.T) {
	for name, want := range map[string]DelayKind{
		"": DelayFixed, "fixed": DelayFixed, "uniform": DelayUniform, "longtail": DelayLongTail,
	} {
		k, err := ParseDelayKind(name)
		if err != nil || k != want {
			t.Fatalf("ParseDelayKind(%q) = %v, %v", name, k, err)
		}
		if name != "" && k.String() != name {
			t.Fatalf("String(%v) = %q", k, k.String())
		}
	}
	if _, err := ParseDelayKind("gaussian"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"ring k too big": func() { Ring(4, 2, 1) },
		"ring k zero":    func() { Ring(4, 0, 1) },
		"grid cols zero": func() { Grid(4, 0, 1) },
		"ws bad beta":    func() { WattsStrogatz(xrand.New(1, 1), 10, 2, 1.5, 1) },
		"ba m too big":   func() { BarabasiAlbert(xrand.New(1, 1), 3, 3, 1) },
		"non-positive n": func() { Complete(0, 1) },
		"zero latency":   func() { Complete(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
