package dag

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

func TestEmpty(t *testing.T) {
	m := appendmem.New(2)
	d := Build(m.Read())
	if d.Size() != 0 || d.Height() != 0 {
		t.Fatal("empty DAG not empty")
	}
	if d.GhostPivot() != nil || d.LongestPivot() != nil {
		t.Fatal("pivot of empty DAG not nil")
	}
	if d.Tips() != nil {
		t.Fatal("tips of empty DAG not nil")
	}
}

func TestSingle(t *testing.T) {
	m := appendmem.New(1)
	msg := m.Writer(0).MustAppend(5, 0, nil)
	d := Build(m.Read())
	if d.Size() != 1 || d.Height() != 1 {
		t.Fatalf("size=%d height=%d", d.Size(), d.Height())
	}
	tips := d.Tips()
	if len(tips) != 1 || tips[0] != msg.ID {
		t.Fatalf("tips = %v", tips)
	}
	if got := d.GhostPivot(); len(got) != 1 || got[0] != msg.ID {
		t.Fatalf("ghost pivot = %v", got)
	}
	if got := d.LongestPivot(); len(got) != 1 || got[0] != msg.ID {
		t.Fatalf("longest pivot = %v", got)
	}
}

// diamond builds:  g -> a, g -> b, (a,b) -> c   with c's selected parent a.
func diamond(t *testing.T) (*appendmem.Memory, [4]appendmem.MsgID) {
	t.Helper()
	m := appendmem.New(3)
	g := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID})
	b := m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{g.ID})
	c := m.Writer(0).MustAppend(3, 0, []appendmem.MsgID{a.ID, b.ID})
	return m, [4]appendmem.MsgID{g.ID, a.ID, b.ID, c.ID}
}

func TestDiamondStructure(t *testing.T) {
	m, ids := diamond(t)
	d := Build(m.Read())
	g, a, b, c := ids[0], ids[1], ids[2], ids[3]
	if d.Height() != 3 {
		t.Fatalf("height = %d", d.Height())
	}
	if dep, _ := d.Depth(c); dep != 3 {
		t.Fatalf("depth(c) = %d", dep)
	}
	tips := d.Tips()
	if len(tips) != 1 || tips[0] != c {
		t.Fatalf("tips = %v", tips)
	}
	if cone := d.PastCone(c); !slices.Contains(cone, g) || !slices.Contains(cone, b) || slices.Contains(d.PastCone(a), c) {
		t.Fatal("ancestry wrong")
	}
	// Selected-parent tree: g->a, g->b, a->c, so subtree(g) = 4.
	if w := d.Weight(g); w != 4 {
		t.Fatalf("weight(g) = %d, want 4", w)
	}
	if w := d.Weight(a); w != 2 {
		t.Fatalf("weight(a) = %d, want 2", w)
	}
	if w := d.Weight(b); w != 1 {
		t.Fatalf("weight(b) = %d, want 1", w)
	}
}

func TestDiamondPivotAndLinearize(t *testing.T) {
	m, ids := diamond(t)
	d := Build(m.Read())
	g, a, b, c := ids[0], ids[1], ids[2], ids[3]
	pivot := d.GhostPivot()
	want := []appendmem.MsgID{g, a, c}
	if len(pivot) != 3 {
		t.Fatalf("pivot = %v", pivot)
	}
	for i := range want {
		if pivot[i] != want[i] {
			t.Fatalf("pivot = %v, want %v", pivot, want)
		}
	}
	order := d.Linearize(pivot)
	// b is in c's epoch: order must be g, a, b, c.
	wantOrder := []appendmem.MsgID{g, a, b, c}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order = %v, want %v", order, wantOrder)
		}
	}
	vals := d.OrderedValues(pivot, 3)
	if len(vals) != 3 || vals[0] != 0 || vals[1] != 1 || vals[2] != 2 {
		t.Fatalf("values = %v", vals)
	}
}

func TestGhostPrefersHeavier(t *testing.T) {
	// g has two selected-parent children a (subtree 1) and b (subtree 2).
	m := appendmem.New(4)
	g := m.Writer(0).MustAppend(0, 0, nil)
	m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID}) // a, arrives first
	b := m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{g.ID})
	m.Writer(3).MustAppend(3, 0, []appendmem.MsgID{b.ID})
	d := Build(m.Read())
	pivot := d.GhostPivot()
	if pivot[1] != b.ID {
		t.Fatalf("GHOST chose %d at level 2, want %d (heavier)", pivot[1], b.ID)
	}
}

func TestGhostTieBreaksByArrival(t *testing.T) {
	m := appendmem.New(3)
	g := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID})
	m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{g.ID})
	d := Build(m.Read())
	if pivot := d.GhostPivot(); pivot[1] != a.ID {
		t.Fatalf("tie broken to %d, want first-arrived %d", pivot[1], a.ID)
	}
}

func TestLongestPivotDiffersFromGhost(t *testing.T) {
	// Selected-parent tree: g -> a -> x (long, light) vs g -> b with two
	// sibling leaves under b (short, heavy).
	m := appendmem.New(2)
	g := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(0).MustAppend(1, 0, []appendmem.MsgID{g.ID})
	x := m.Writer(0).MustAppend(2, 0, []appendmem.MsgID{a.ID})
	b := m.Writer(1).MustAppend(3, 0, []appendmem.MsgID{g.ID})
	m.Writer(1).MustAppend(4, 0, []appendmem.MsgID{b.ID})
	m.Writer(1).MustAppend(5, 0, []appendmem.MsgID{b.ID})
	d := Build(m.Read())
	// weights: subtree(a)=2 < subtree(b)=3, so GHOST goes g,b,...
	ghost := d.GhostPivot()
	if ghost[1] != b.ID {
		t.Fatalf("ghost pivot = %v", ghost)
	}
	// longest selected-parent chain is g,a,x (length 3).
	longest := d.LongestPivot()
	if len(longest) != 3 || longest[2] != x.ID {
		t.Fatalf("longest pivot = %v", longest)
	}
}

func TestDanglingExcluded(t *testing.T) {
	m := appendmem.New(2)
	g := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID})
	m.Writer(0).MustAppend(2, 0, []appendmem.MsgID{a.ID})
	partial := m.ViewAt(1)
	d := Build(partial)
	if d.Size() != 1 {
		t.Fatalf("size = %d, want 1", d.Size())
	}
}

// childrenOf derives from the parent edges the blocks that list id among
// their parents, in arrival order, each once. The index keeps no child
// lists; this is the test's own reference.
func childrenOf(d *Dag, id appendmem.MsgID) []appendmem.MsgID {
	var kids []appendmem.MsgID
	view := d.view
	for c := id + 1; int(c) < view.Size(); c++ {
		if d.Contains(c) && slices.Contains(view.Message(c).Parents, id) {
			kids = append(kids, c)
		}
	}
	return kids
}

func TestDuplicateParentEdges(t *testing.T) {
	m := appendmem.New(2)
	g := m.Writer(0).MustAppend(0, 0, nil)
	c := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{g.ID, g.ID})
	d := Build(m.Read())
	if kids := childrenOf(d, g.ID); len(kids) != 1 || kids[0] != c.ID {
		t.Fatalf("duplicate parent created duplicate child edges: %v", kids)
	}
	if tips := d.Tips(); len(tips) != 1 || tips[0] != c.ID {
		t.Fatalf("tips = %v, want [%d]", tips, c.ID)
	}
	if order := d.Linearize(d.GhostPivot()); !equalIDs(order, []appendmem.MsgID{g.ID, c.ID}) {
		t.Fatalf("linearization %v, want [%d %d]", order, g.ID, c.ID)
	}
}

// randomDag builds a random DAG where each block picks 1-3 random parents
// among existing blocks (plus possibly being a root).
func randomDag(rng *xrand.PCG, steps int) *appendmem.Memory {
	n := 4
	m := appendmem.New(n)
	var ids []appendmem.MsgID
	for s := 0; s < steps; s++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			for j := 0; j < 1+rng.Intn(3); j++ {
				parents = append(parents, ids[rng.Intn(len(ids))])
			}
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(n))).MustAppend(int64(s), 0, parents)
		ids = append(ids, msg.ID)
	}
	return m
}

func TestPropertyLinearizeIsLinearExtension(t *testing.T) {
	rng := xrand.New(11, 11)
	if err := quick.Check(func(steps uint8) bool {
		m := randomDag(rng, int(steps%40)+1)
		d := Build(m.Read())
		pivot := d.GhostPivot()
		order := d.Linearize(pivot)
		pos := make(map[appendmem.MsgID]int, len(order))
		for i, id := range order {
			if _, dup := pos[id]; dup {
				return false // no duplicates
			}
			pos[id] = i
		}
		// Every ordered block's parents in the cone precede it.
		for _, id := range order {
			for _, p := range m.Message(id).Parents {
				if p == appendmem.None {
					continue
				}
				pp, ok := pos[p]
				if !ok || pp >= pos[id] {
					return false
				}
			}
		}
		// The ordering covers exactly the past cone of the pivot tip.
		if len(pivot) > 0 {
			cone := d.PastCone(pivot[len(pivot)-1])
			if len(cone) != len(order) {
				return false
			}
			for _, id := range cone {
				if _, ok := pos[id]; !ok {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyIdenticalViewsIdenticalOrder(t *testing.T) {
	rng := xrand.New(12, 12)
	m := randomDag(rng, 60)
	v := m.Read()
	a := Build(v).Linearize(Build(v).GhostPivot())
	b := Build(v).Linearize(Build(v).GhostPivot())
	if len(a) != len(b) {
		t.Fatal("orders differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical views produced different orders")
		}
	}
}

func TestPropertyGhostWeightEqualsSubtreeSize(t *testing.T) {
	rng := xrand.New(13, 13)
	if err := quick.Check(func(steps uint8) bool {
		m := randomDag(rng, int(steps%40)+1)
		d := Build(m.Read())
		// Sum of root weights equals DAG size (selected-parent tree
		// partitions the DAG).
		total := 0
		for id := appendmem.MsgID(0); int(id) < m.Len(); id++ {
			if !d.Contains(id) {
				continue
			}
			if SelectedParent(m.Message(id)) == appendmem.None {
				total += d.Weight(id)
			}
		}
		return total == d.Size()
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyPivotIsChain(t *testing.T) {
	rng := xrand.New(14, 14)
	if err := quick.Check(func(steps uint8) bool {
		m := randomDag(rng, int(steps%40)+1)
		d := Build(m.Read())
		for _, pivot := range [][]appendmem.MsgID{d.GhostPivot(), d.LongestPivot()} {
			for i := 1; i < len(pivot); i++ {
				if SelectedParent(m.Message(pivot[i])) != pivot[i-1] {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPastConeClosed(t *testing.T) {
	rng := xrand.New(15, 15)
	m := randomDag(rng, 50)
	d := Build(m.Read())
	for id := appendmem.MsgID(0); int(id) < m.Len(); id++ {
		if !d.Contains(id) {
			continue
		}
		cone := d.PastCone(id)
		inCone := make(map[appendmem.MsgID]bool, len(cone))
		for _, member := range cone {
			inCone[member] = true
		}
		for _, member := range cone {
			for _, p := range m.Message(member).Parents {
				if p != appendmem.None && !inCone[p] {
					t.Fatalf("past cone of %d not ancestor-closed at %d", id, member)
				}
			}
		}
	}
}
