package access

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// TestVisibilitySteadyStateAllocs pins the per-append cost of the
// visibility flood: once the arrival bitsets, announce slice, flood
// records, hop slots (each with its bound event) and the simulator's event
// heap have grown past the measured window, one append-announce-drain
// cycle reuses all of it. Amortized slice growth is kept out of the window
// by warming up to just past a capacity doubling.
func TestVisibilitySteadyStateAllocs(t *testing.T) {
	s := sim.New()
	g := topology.Ring(16, 2, 0.1)
	m := appendmem.New(16)
	v := NewVisibility(s, xrand.New(1, 1), g, topology.DelayModel{}, m)
	parents := []appendmem.MsgID{appendmem.None}
	i := 0
	step := func() {
		msg := m.Writer(appendmem.NodeID(i%16)).MustAppend(1, 0, parents)
		parents[0] = msg.ID
		i++
		v.Sync()
		s.Run()
	}
	for i < 1100 {
		step()
	}

	allocs := testing.AllocsPerRun(100, step)
	if allocs > 0 {
		t.Errorf("warm visibility flood allocated %.2f times per append, want 0", allocs)
	}
	for id := 0; id < g.N(); id++ {
		if got := v.Prefix(appendmem.NodeID(id)); got != m.Len() {
			t.Fatalf("node %d prefix %d after quiescence, want %d", id, got, m.Len())
		}
	}
}

// TestVisibilitySyncIdempotentNoAllocs: Sync with nothing new must be a
// cheap no-op — it runs on every append site in the agreement loop.
func TestVisibilitySyncIdempotentNoAllocs(t *testing.T) {
	s := sim.New()
	g := topology.Ring(8, 1, 0.1)
	m := appendmem.New(8)
	v := NewVisibility(s, xrand.New(2, 2), g, topology.DelayModel{}, m)
	m.Writer(0).MustAppend(1, 0, []appendmem.MsgID{appendmem.None})
	v.Sync()
	s.Run()

	allocs := testing.AllocsPerRun(100, v.Sync)
	if allocs != 0 {
		t.Errorf("idempotent Sync allocated %.2f times per call, want 0", allocs)
	}
}

// TestVisibilityFloodStateBounded: flood records and hop slots are
// recycled when a flood's last hop fires, so the tracker's per-flood state
// is bounded by the floods in flight, not by the message count. On a
// 64-node k=1 ring with delays of at most 1.5·0.1, a flood is over within
// 32·0.15 = 4.8 time units; one append every 0.05 keeps at most 97 floods
// in flight, each with one front going either way round the ring, so at
// most two pending hops. 5,000 appends must stay inside that, however long
// the memory grows.
func TestVisibilityFloodStateBounded(t *testing.T) {
	const n, appends, gap = 64, 5000, 0.05
	s := sim.New()
	g := topology.Ring(n, 1, 0.1)
	m := appendmem.New(n)
	v := NewVisibility(s, xrand.New(5, 5), g, topology.DelayModel{Kind: topology.DelayUniform}, m)
	i := 0
	var appendNext func()
	appendNext = func() {
		m.Writer(appendmem.NodeID(i*7%n)).MustAppend(int64(i), 0, nil)
		v.Sync()
		if i++; i < appends {
			s.After(gap, appendNext)
		}
	}
	s.At(0, appendNext)
	maxFloods := 0
	for s.Step() {
		maxFloods = max(maxFloods, len(v.floods)-len(v.freeFlood))
	}
	const bound = 97
	if maxFloods > bound || len(v.floods) > bound {
		t.Fatalf("%d floods in flight at most, %d records allocated; want <= %d for %d appends",
			maxFloods, len(v.floods), bound, appends)
	}
	if len(v.hops) > 2*bound {
		t.Fatalf("%d hop slots, want <= %d", len(v.hops), 2*bound)
	}
	if len(v.freeFlood) != len(v.floods) || len(v.freeHop) != len(v.hops) {
		t.Fatalf("after quiescence %d of %d flood records and %d of %d hop slots are free",
			len(v.freeFlood), len(v.floods), len(v.freeHop), len(v.hops))
	}
	t.Logf("%d appends: %d flood records, %d hop slots", appends, len(v.floods), len(v.hops))
	for id := 0; id < n; id++ {
		if got := v.Prefix(appendmem.NodeID(id)); got != appends {
			t.Fatalf("node %d prefix %d, want %d", id, got, appends)
		}
	}
}
