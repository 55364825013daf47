package dag

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/xrand"
)

// Differential property: on single-parent structures, the DAG's
// longest-pivot rule and the chain package's longest-chain selection (with
// first-arrived tie-breaking) must pick the exact same chain — the DAG is
// a strict generalization of the chain.
func TestDifferentialLongestPivotVsChain(t *testing.T) {
	rng := xrand.New(77, 77)
	if err := quick.Check(func(steps uint8) bool {
		n := 4
		m := appendmem.New(n)
		var ids []appendmem.MsgID
		for s := 0; s < int(steps%60)+1; s++ {
			parent := appendmem.None
			if len(ids) > 0 {
				parent = ids[rng.Intn(len(ids))]
			}
			msg := m.Writer(appendmem.NodeID(rng.Intn(n))).MustAppend(int64(s), 0, []appendmem.MsgID{parent})
			ids = append(ids, msg.ID)
		}
		view := m.Read()

		d := Build(view)
		pivot := d.LongestPivot()

		chainIDs := chain.Build(view).SelectedChain(chain.FirstTieBreaker{})
		if len(chainIDs) == 0 {
			return len(pivot) == 0
		}

		if len(pivot) != len(chainIDs) {
			return false
		}
		for i := range pivot {
			if pivot[i] != chainIDs[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

// On single-parent structures the DAG's linearization of the longest pivot
// is exactly the chain itself: no epochs, no extra blocks.
func TestDifferentialLinearizeIsChain(t *testing.T) {
	rng := xrand.New(78, 78)
	m := appendmem.New(3)
	var ids []appendmem.MsgID
	for s := 0; s < 50; s++ {
		parent := appendmem.None
		if len(ids) > 0 {
			parent = ids[rng.Intn(len(ids))]
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(3))).MustAppend(int64(s), 0, []appendmem.MsgID{parent})
		ids = append(ids, msg.ID)
	}
	view := m.Read()
	d := Build(view)
	pivot := d.LongestPivot()
	order := d.Linearize(pivot)
	if len(order) != len(pivot) {
		t.Fatalf("single-parent linearization has %d blocks for a %d-block pivot", len(order), len(pivot))
	}
	for i := range pivot {
		if order[i] != pivot[i] {
			t.Fatal("linearization deviates from the chain")
		}
	}
}

// GHOST and longest-pivot agree whenever the structure is a simple path.
func TestDifferentialPivotRulesOnPath(t *testing.T) {
	m := appendmem.New(1)
	parent := appendmem.None
	for i := 0; i < 20; i++ {
		msg := m.Writer(0).MustAppend(int64(i), 0, []appendmem.MsgID{parent})
		parent = msg.ID
	}
	d := Build(m.Read())
	ghost, longest := d.GhostPivot(), d.LongestPivot()
	if len(ghost) != 20 || len(longest) != 20 {
		t.Fatal("pivot lengths wrong on a path")
	}
	for i := range ghost {
		if ghost[i] != longest[i] {
			t.Fatal("pivot rules disagree on a path")
		}
	}
}

// equalIDs reports element-wise equality, treating nil and empty alike.
func equalIDs(a, b []appendmem.MsgID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertSameDag compares every observable of an incrementally extended index
// against a from-scratch one.
func assertSameDag(t *testing.T, step int, inc, ref *Dag) {
	t.Helper()
	if inc.Size() != ref.Size() {
		t.Fatalf("prefix %d: size %d vs %d", step, inc.Size(), ref.Size())
	}
	if inc.Height() != ref.Height() {
		t.Fatalf("prefix %d: height %d vs %d", step, inc.Height(), ref.Height())
	}
	if !equalIDs(inc.Tips(), ref.Tips()) {
		t.Fatalf("prefix %d: tips %v vs %v", step, inc.Tips(), ref.Tips())
	}
	if !equalIDs(inc.GhostPivot(), ref.GhostPivot()) {
		t.Fatalf("prefix %d: ghost pivot %v vs %v", step, inc.GhostPivot(), ref.GhostPivot())
	}
	if !equalIDs(inc.LongestPivot(), ref.LongestPivot()) {
		t.Fatalf("prefix %d: longest pivot %v vs %v", step, inc.LongestPivot(), ref.LongestPivot())
	}
	for id := appendmem.MsgID(0); int(id) < step; id++ {
		if inc.Contains(id) != ref.Contains(id) {
			t.Fatalf("prefix %d: Contains(%d) differs", step, id)
		}
		di, oki := inc.Depth(id)
		dr, okr := ref.Depth(id)
		if di != dr || oki != okr {
			t.Fatalf("prefix %d: depth(%d) %d,%v vs %d,%v", step, id, di, oki, dr, okr)
		}
		if inc.Weight(id) != ref.Weight(id) {
			t.Fatalf("prefix %d: weight(%d) %d vs %d", step, id, inc.Weight(id), ref.Weight(id))
		}
		if !equalIDs(inc.PastCone(id), ref.PastCone(id)) {
			t.Fatalf("prefix %d: past cone(%d) differs", step, id)
		}
	}
	if !equalIDs(inc.Linearize(inc.GhostPivot()), ref.Linearize(ref.GhostPivot())) {
		t.Fatalf("prefix %d: ghost linearizations differ", step)
	}
	if !equalIDs(inc.Linearize(inc.LongestPivot()), ref.Linearize(ref.LongestPivot())) {
		t.Fatalf("prefix %d: longest linearizations differ", step)
	}
}

// adversarialHistory mixes honest inclusive appends (all current tips, pivot
// first) with withholding-style private-chain extensions and arbitrary
// multi-parent blocks — the block shapes every adversary in the repo emits.
func adversarialHistory(rng *xrand.PCG, steps int) *appendmem.Memory {
	n := 4
	m := appendmem.New(n)
	private := appendmem.None // tip of a privately extended chain
	for s := 0; s < steps; s++ {
		w := m.Writer(appendmem.NodeID(rng.Intn(n)))
		switch style := rng.Intn(4); {
		case style == 0 && m.Len() > 0: // withholding: extend a private chain
			msg := w.MustAppend(-1, 0, []appendmem.MsgID{private})
			private = msg.ID
		case style == 1 && m.Len() > 0: // arbitrary parents, duplicates allowed
			var parents []appendmem.MsgID
			for j := 0; j < 1+rng.Intn(3); j++ {
				parents = append(parents, appendmem.MsgID(rng.Intn(m.Len())))
			}
			w.MustAppend(int64(s), 0, parents)
		default: // honest inclusive append over the full view
			d := Build(m.Read())
			tips := d.Tips()
			if len(tips) == 0 {
				w.MustAppend(int64(s), 0, nil)
				break
			}
			pivot := d.GhostPivot()
			parents := []appendmem.MsgID{pivot[len(pivot)-1]}
			for _, tip := range tips {
				if tip != parents[0] {
					parents = append(parents, tip)
				}
			}
			w.MustAppend(int64(s), 0, parents)
		}
	}
	return m
}

// TestDifferentialExtendVsBuild: for every prefix of randomized adversarial
// histories, a Dag grown one block at a time through Extend must agree with
// a from-scratch Build on every observable.
func TestDifferentialExtendVsBuild(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed, 99)
		m := adversarialHistory(rng, 70)
		inc := Build(m.ViewAt(0))
		for s := 0; s <= m.Len(); s++ {
			view := m.ViewAt(s)
			inc.Extend(view)
			assertSameDag(t, s, inc, Build(view))
		}
	}
}

// TestCachedFallsBackOnRegression: a Cached handle handed non-monotone view
// sizes (stale async reads) must still answer exactly like Build — the
// rebuild fallback, not a wrong in-place answer — and so must a nil
// handle.
func TestCachedFallsBackOnRegression(t *testing.T) {
	rng := xrand.New(5, 99)
	m := adversarialHistory(rng, 60)
	c := NewCached()
	var none *Cached // stateless: At is Build, and it pins and retires nothing
	sizes := []int{10, 25, 25, 7, 40, 12, 60, 60, 3, 55}
	for _, s := range sizes {
		view := m.ViewAt(s)
		assertSameDag(t, s, c.At(view), Build(view))
		assertSameDag(t, s, none.At(view), Build(view))
	}
	if f, w := none.Floor(), none.CompactTo(30); f != 0 || w != 0 {
		t.Fatalf("nil handle: Floor %d, CompactTo %d, want 0 and 0", f, w)
	}
}

// TestExtendRejectsForeignView: Extend must refuse a view that is not an
// extension of the indexed one.
func TestExtendRejectsForeignView(t *testing.T) {
	m := adversarialHistory(xrand.New(6, 99), 20)
	other := adversarialHistory(xrand.New(7, 99), 20)
	d := Build(m.ViewAt(10))
	for _, bad := range []appendmem.View{m.ViewAt(5), other.Read()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Extend accepted a non-extension view")
				}
			}()
			d.Extend(bad)
		}()
	}
}

// TestDifferentialOrderedValuesPrefix: OrderedValues orders only the
// epochs that cover its first k positions. On every prefix of randomized
// histories, for both pivot rules, on a plain and on a Compacted index,
// OrderedValues(pivot, k) must equal the frozen values followed by the
// values of the full Linearize(pivot), cut to k, for every k up to past
// the end. A slice Linearize returned is the caller's: later
// OrderedValues, Extend and Compact calls must leave it unchanged.
func TestDifferentialOrderedValuesPrefix(t *testing.T) {
	histories := []func(*xrand.PCG, int) *appendmem.Memory{adversarialHistory, recentDagHistory}
	rules := []func(*Dag) []appendmem.MsgID{(*Dag).GhostPivot, (*Dag).LongestPivot}
	compacted := 0
	for _, history := range histories {
		for seed := uint64(1); seed <= 6; seed++ {
			m := history(xrand.New(seed, 31), 60)
			safe := safeWatermarks(m)
			plain, pruned := Build(m.ViewAt(0)), Build(m.ViewAt(0))
			var held, heldCopy [][]appendmem.MsgID
			for s := 1; s <= m.Len(); s++ {
				plain.Extend(m.ViewAt(s))
				pruned.Extend(m.ViewAt(s))
				if pruned.Compact(safe[s]) > 0 {
					compacted++
				}
				var orders [][]appendmem.MsgID
				for _, d := range []*Dag{plain, pruned} {
					for r, rule := range rules {
						pivot := rule(d)
						order := d.Linearize(pivot)
						orders = append(orders, order)
						want := slices.Clone(d.frozenVals)
						for _, id := range order {
							want = append(want, d.valueOf(id))
						}
						for k := 0; k <= len(want)+2; k++ {
							got := d.OrderedValues(pivot, k)
							if !slices.Equal(got, want[:min(k, len(want))]) {
								t.Fatalf("seed %d prefix %d rule %d watermark %d: OrderedValues(%d) = %v, want %v",
									seed, s, r, d.off, k, got, want[:min(k, len(want))])
							}
						}
					}
				}
				for i := range held {
					if !slices.Equal(held[i], heldCopy[i]) {
						t.Fatalf("seed %d prefix %d: a Linearize result changed under later calls", seed, s)
					}
				}
				held, heldCopy = orders, nil
				for _, o := range orders {
					heldCopy = append(heldCopy, slices.Clone(o))
				}
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no history ever allowed retirement; the compacted half is vacuous")
	}
}

// TestDifferentialBatchedExtend: Extend batches of random size (1 to 300),
// each followed by Compact(safe[s]), must leave every live weight, both
// pivots and the decision prefix exactly where one-block-at-a-time
// extension under the same compactions and a fresh Build leave them. Only
// Build sees a multi-block batch otherwise.
func TestDifferentialBatchedExtend(t *testing.T) {
	histories := []func(*xrand.PCG, int) *appendmem.Memory{adversarialHistory, recentDagHistory}
	compacted := 0
	for _, history := range histories {
		for seed := uint64(1); seed <= 4; seed++ {
			m := history(xrand.New(seed, 41), 900)
			safe := safeWatermarks(m)
			rng := xrand.New(seed, 43)
			batched, single := Build(m.ViewAt(0)), Build(m.ViewAt(0))
			for s := 0; s < m.Len(); {
				s = min(m.Len(), s+1+rng.Intn(300))
				batched.Extend(m.ViewAt(s))
				for single.built < s {
					single.Extend(m.ViewAt(single.built + 1))
				}
				if batched.Compact(safe[s]) != single.Compact(safe[s]) {
					t.Fatalf("seed %d prefix %d: watermarks %d vs %d", seed, s, batched.off, single.off)
				}
				if batched.off > 0 {
					compacted++
				}
				if !equalIDs(batched.GhostPivot(), single.GhostPivot()) ||
					!equalIDs(batched.LongestPivot(), single.LongestPivot()) {
					t.Fatalf("seed %d prefix %d: live pivots differ from the one-block index", seed, s)
				}
				assertSameDagDecisions(t, s, batched, single)
				assertSameDagDecisions(t, s, batched, Build(m.ViewAt(s)))
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no history ever allowed retirement; the compacted batches are vacuous")
	}
}

// TestBatchedGhostTieKeepsOlderKid: two selected-parent kids of one block
// reach equal weight inside one Extend batch. The earlier-arrived kid must
// stay the GHOST choice, both when the two kids arrive in the batch and
// when the older one predates it and its carry lands only after the newer
// kid has taken the slot.
func TestBatchedGhostTieKeepsOlderKid(t *testing.T) {
	for _, oldKid := range []bool{false, true} {
		m := appendmem.New(1)
		w := m.Writer(0)
		g := w.MustAppend(0, 0, nil).ID
		var a appendmem.MsgID
		if oldKid {
			a = w.MustAppend(1, 0, []appendmem.MsgID{g}).ID
		}
		d := Build(m.Read())
		if !oldKid {
			a = w.MustAppend(1, 0, []appendmem.MsgID{g}).ID
		}
		b := w.MustAppend(2, 0, []appendmem.MsgID{g}).ID
		w.MustAppend(3, 0, []appendmem.MsgID{b})
		a1 := w.MustAppend(4, 0, []appendmem.MsgID{a}).ID
		d.Extend(m.Read())
		if d.Weight(a) != 2 || d.Weight(b) != 2 {
			t.Fatalf("oldKid=%v: weights a=%d b=%d, want a tie at 2", oldKid, d.Weight(a), d.Weight(b))
		}
		want := []appendmem.MsgID{g, a, a1}
		if got := d.GhostPivot(); !equalIDs(got, want) {
			t.Fatalf("oldKid=%v: ghost pivot %v, want %v (the earlier kid wins the tie)", oldKid, got, want)
		}
		assertSameDag(t, m.Len(), d, Build(m.Read()))
	}
}

// TestDifferentialOrderCache drives long-lived indexes through random and
// adversarial histories in random-size Extend steps. At every prefix it
// asks a random mix of GHOST and longest pivots at several limits
// (OrderedValues at k and k+confirm, Linearize), on a plain index and on
// one Compacted at random points, and compares every answer with a fresh
// Build of that prefix. Each long-lived index reuses the epochs of the
// pivot prefix it shares with its previous ordering, so a cache that keeps
// a stale epoch, or fails to un-stamp a dropped one, answers differently.
// Asking the same query twice in a row must place no id.
func TestDifferentialOrderCache(t *testing.T) {
	const k, confirm = 21, 4
	histories := []func(*xrand.PCG, int) *appendmem.Memory{adversarialHistory, recentDagHistory}
	rules := []func(*Dag) []appendmem.MsgID{(*Dag).GhostPivot, (*Dag).LongestPivot}
	compacted := 0
	for h, history := range histories {
		for seed := uint64(1); seed <= 8; seed++ {
			m := history(xrand.New(seed, 53), 90)
			safe := safeWatermarks(m)
			rng := xrand.New(seed, 59)
			plain, pruned := Build(m.ViewAt(0)), Build(m.ViewAt(0))
			for s := 0; s < m.Len(); {
				s = min(m.Len(), s+1+rng.Intn(3))
				plain.Extend(m.ViewAt(s))
				pruned.Extend(m.ViewAt(s))
				if rng.Intn(4) == 0 && pruned.Compact(safe[s]) > 0 {
					compacted++
				}
				for q := 0; q < 1+rng.Intn(4); q++ {
					r, limit := rng.Intn(len(rules)), []int{k, k + confirm, -1}[rng.Intn(3)]
					// The reference is a fresh index per query: no cache.
					ref := Build(m.ViewAt(s))
					full := ref.Linearize(rules[r](ref))
					for _, d := range []*Dag{plain, pruned} {
						where := fmt.Sprintf("history %d seed %d prefix %d rule %d limit %d watermark %d", h, seed, s, r, limit, d.off)
						pivot := rules[r](d)
						ask := func() {
							if limit < 0 {
								if got, want := d.Linearize(pivot), full[len(d.frozenVals):]; !equalIDs(got, want) {
									t.Fatalf("%s: Linearize = %v, want %v", where, got, want)
								}
								return
							}
							fresh := Build(m.ViewAt(s))
							if got, want := d.OrderedValues(pivot, limit), fresh.OrderedValues(rules[r](fresh), limit); !slices.Equal(got, want) {
								t.Fatalf("%s: OrderedValues = %v, want %v", where, got, want)
							}
						}
						ask()
						placed := d.Ordered()
						ask()
						if d.Ordered() != placed {
							t.Fatalf("%s: a repeated query placed %d ids", where, d.Ordered()-placed)
						}
					}
				}
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no history ever allowed retirement; the compacted half is vacuous")
	}
}
