package access

import (
	"flag"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/visibility_trace.golden")

// visCase is one pinned flood scenario: a graph, a delay model, the
// visibility rng seed and the append schedule. batch[i] messages are
// appended at time at[i] before a single Sync, so several floods can start
// at one instant.
type visCase struct {
	name  string
	g     *topology.Graph
	dm    topology.DelayModel
	seed  uint64
	at    []float64
	batch []int
}

// schedule spreads count append events gap apart from start, one message
// each.
func schedule(count int, start, gap float64) ([]float64, []int) {
	at, batch := make([]float64, count), make([]int, count)
	for i := range at {
		at[i], batch[i] = start+float64(i)*gap, 1
	}
	return at, batch
}

func visCases() []visCase {
	var cs []visCase
	at, batch := schedule(12, 0, 0.25)
	cs = append(cs, visCase{"smallworld-256-uniform",
		topology.WattsStrogatz(xrand.New(7, 7), 256, 3, 0.2, 0.1),
		topology.DelayModel{Kind: topology.DelayUniform}, 11, at, batch})
	// Fixed delays on a grid: many paths of equal hop count, so arrivals
	// tie on time and only the scheduling order separates them.
	at, batch = schedule(6, 0, 1.5)
	cs = append(cs, visCase{"grid-64-fixed",
		topology.Grid(64, 8, 0.5), topology.DelayModel{}, 12, at, batch})
	at, batch = schedule(8, 0, 0.7)
	cs = append(cs, visCase{"ring-48-k1-longtail",
		topology.Ring(48, 1, 0.2), topology.DelayModel{Kind: topology.DelayLongTail}, 13, at, batch})
	at, batch = schedule(8, 0, 0.5)
	cs = append(cs, visCase{"complete-32-uniform",
		topology.Complete(32, 0.3), topology.DelayModel{Kind: topology.DelayUniform}, 14, at, batch})
	// Appends far faster than a flood crosses the graph, some landing
	// together: dozens of floods are in flight at once.
	at, batch = schedule(40, 0, 0.02)
	for i := range batch {
		batch[i] = 1 + i%3
	}
	cs = append(cs, visCase{"overlap-ring-64-k2-uniform",
		topology.Ring(64, 2, 0.1), topology.DelayModel{Kind: topology.DelayUniform}, 15, at, batch})
	return cs
}

// visTrace runs one case a simulator event at a time and records every
// arrival as "msg node time-bits" in the order the arrivals happen, then
// the mean lag's bits and the delivery count. A nil pooled builds a fresh
// tracker; otherwise pooled is rebound to the case and unbound after it.
func visTrace(c visCase, pooled *Visibility) string {
	n := c.g.N()
	s := sim.New()
	mem := appendmem.New(n)
	v := pooled
	if v == nil {
		v = NewVisibility(s, xrand.New(c.seed, 1), c.g, c.dm, mem)
	} else {
		v.Rebind(s, xrand.New(c.seed, 1), c.g, c.dm, mem)
		defer v.Unbind()
	}
	authors := 0
	for i, t := range c.at {
		k := c.batch[i]
		s.At(sim.Time(t), func() {
			for j := 0; j < k; j++ {
				mem.Writer(appendmem.NodeID((authors*37+5)%n)).MustAppend(int64(authors), 0, nil)
				authors++
			}
			v.Sync()
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "case %s\n", c.name)
	seen := make([][]uint64, n)
	for s.Step() {
		for node := range seen {
			cur := v.arrived[node]
			for len(seen[node]) < len(cur) {
				seen[node] = append(seen[node], 0)
			}
			for w, word := range cur {
				for fresh := word &^ seen[node][w]; fresh != 0; fresh &= fresh - 1 {
					msg := w*64 + bits.TrailingZeros64(fresh)
					fmt.Fprintf(&b, "%d %d %016x\n", msg, node, math.Float64bits(float64(s.Now())))
				}
				seen[node][w] = word
			}
		}
	}
	fmt.Fprintf(&b, "meanlag %016x deliveries %d\n", math.Float64bits(v.MeanLag()), v.Deliveries())
	return b.String()
}

// cutOff binds v to c on a throwaway simulator and abandons it with floods
// still in flight, as a trial ended by a decision does.
func cutOff(c visCase, v *Visibility) {
	s := sim.New()
	mem := appendmem.New(c.g.N())
	v.Rebind(s, xrand.New(c.seed+1, 1), c.g, c.dm, mem)
	defer v.Unbind()
	for i := 0; i < 3; i++ {
		mem.Writer(appendmem.NodeID(i)).MustAppend(int64(i), 0, nil)
	}
	v.Sync()
	for i := 0; i < c.g.N() && s.Step(); i++ {
	}
}

// TestVisibilityTraceGolden pins every arrival of five flood scenarios —
// which node saw which message at which exact instant, in arrival order —
// and the mean lag, byte-for-byte. The cases cover a uniform-delay
// small-world graph, equal-time arrivals on a fixed-delay grid, a
// long-tail k=1 ring, the implicit complete graph, and appends landing
// while earlier floods are still in flight. One tracker rebound from case
// to case (graphs of different sizes, floods abandoned mid-flight by
// cutOff) must trace exactly like fresh ones.
func TestVisibilityTraceGolden(t *testing.T) {
	var b, rebound strings.Builder
	pooled := &Visibility{}
	for _, c := range visCases() {
		b.WriteString(visTrace(c, nil))
		cutOff(c, pooled)
		rebound.WriteString(visTrace(c, pooled))
		if len(pooled.freeFlood) != len(pooled.floods) || len(pooled.freeHop) != len(pooled.hops) {
			t.Fatalf("%s: %d of %d flood records and %d of %d hop slots free after quiescence",
				c.name, len(pooled.freeFlood), len(pooled.floods), len(pooled.freeHop), len(pooled.hops))
		}
	}
	got := b.String()
	if rebound.String() != got {
		t.Fatal("a rebound tracker traced differently from fresh ones")
	}
	path := filepath.Join("testdata", "visibility_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("visibility trace diverges at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("visibility trace length %d lines, want %d", len(gl), len(wl))
	}
}

// TestVisibilityRebindGrows rebinds one pooled tracker to graphs that grow
// a node at a time, across the points where the per-node storage's spare
// capacity runs out and where it does not, and holds every run to a fresh
// tracker's trace.
func TestVisibilityRebindGrows(t *testing.T) {
	pooled := &Visibility{}
	for _, n := range []int{4, 5, 6, 7, 8, 9, 11, 12, 13, 3, 17} {
		at := []float64{0, 0.05, 0.3}
		c := visCase{fmt.Sprintf("ring-%d", n), topology.Ring(n, 1, 0.1),
			topology.DelayModel{Kind: topology.DelayUniform}, uint64(n), at, []int{1, 2, 1}}
		if got, want := visTrace(c, pooled), visTrace(c, nil); got != want {
			t.Fatalf("n=%d: a rebound tracker traced differently from a fresh one", n)
		}
	}
}
