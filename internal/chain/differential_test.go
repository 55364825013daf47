package chain

import (
	"slices"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

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

// assertSameTree compares every observable of an incrementally extended
// index against a from-scratch one.
func assertSameTree(t *testing.T, step int, inc, ref *Tree) {
	t.Helper()
	if inc.Height() != ref.Height() {
		t.Fatalf("prefix %d: height %d vs %d", step, inc.Height(), ref.Height())
	}
	if inc.size != ref.size {
		t.Fatalf("prefix %d: size %d vs %d", step, inc.size, ref.size)
	}
	if !equalIDs(inc.LongestTips(), ref.LongestTips()) {
		t.Fatalf("prefix %d: longest tips %v vs %v", step, inc.LongestTips(), ref.LongestTips())
	}
	for id := appendmem.None; int(id) < step; id++ {
		if !equalIDs(childrenOf(inc, id), childrenOf(ref, id)) {
			t.Fatalf("prefix %d: children(%d) differ", step, id)
		}
		if id < 0 {
			continue
		}
		di, oki := inc.Depth(id)
		dr, okr := ref.Depth(id)
		if di != dr || oki != okr {
			t.Fatalf("prefix %d: depth(%d) %d,%v vs %d,%v", step, id, di, oki, dr, okr)
		}
		if subtree(inc, id) != subtree(ref, id) {
			t.Fatalf("prefix %d: subtree(%d) differs", step, id)
		}
	}
	if inc.Forks() != ref.Forks() {
		t.Fatalf("prefix %d: forks %d vs %d", step, inc.Forks(), ref.Forks())
	}
	for _, tip := range ref.LongestTips() {
		if !equalIDs(inc.ChainTo(tip), ref.ChainTo(tip)) {
			t.Fatalf("prefix %d: chain to %d differs", step, tip)
		}
	}
}

// chainHistory mixes honest longest-chain appends with fork-building and
// withholding-style extensions of old blocks — the single-parent block
// shapes the chain adversaries emit.
func chainHistory(rng *xrand.PCG, steps int) *appendmem.Memory {
	n := 4
	m := appendmem.New(n)
	private := appendmem.None
	for s := 0; s < steps; s++ {
		w := m.Writer(appendmem.NodeID(rng.Intn(n)))
		switch style := rng.Intn(4); {
		case style == 0 && m.Len() > 0: // withholding: extend a private chain
			msg := w.MustAppend(-1, 0, []appendmem.MsgID{private})
			private = msg.ID
		case style == 1 && m.Len() > 0: // fork off an arbitrary old block
			w.MustAppend(int64(s), 0, []appendmem.MsgID{appendmem.MsgID(rng.Intn(m.Len()))})
		default: // honest: extend the first-arrived longest tip
			tip := appendmem.None
			if tips := Build(m.Read()).LongestTips(); len(tips) > 0 {
				tip = tips[0]
			}
			w.MustAppend(int64(s), 0, []appendmem.MsgID{tip})
		}
	}
	return m
}

// TestDifferentialExtendVsBuild: for every prefix of randomized histories, a
// Tree grown one block at a time through Extend must agree with a
// from-scratch Build on every observable.
func TestDifferentialExtendVsBuild(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed, 98)
		m := chainHistory(rng, 70)
		inc := Build(m.ViewAt(0))
		for s := 0; s <= m.Len(); s++ {
			view := m.ViewAt(s)
			inc.Extend(view)
			assertSameTree(t, s, inc, Build(view))
		}
	}
}

// TestCachedFallsBackOnRegression: a Cached handle handed non-monotone view
// sizes (stale async reads) must still answer exactly like Build, and so
// must a nil handle.
func TestCachedFallsBackOnRegression(t *testing.T) {
	rng := xrand.New(5, 98)
	m := chainHistory(rng, 60)
	c := NewCached()
	var none *Cached // stateless: At is Build, and it pins and retires nothing
	for _, s := range []int{10, 25, 25, 7, 40, 12, 60, 60, 3, 55} {
		view := m.ViewAt(s)
		assertSameTree(t, s, c.At(view), Build(view))
		assertSameTree(t, s, none.At(view), Build(view))
	}
	if f, w := none.Floor(), none.CompactTo(30); f != 0 || w != 0 {
		t.Fatalf("nil handle: Floor %d, CompactTo %d, want 0 and 0", f, w)
	}
}

// TestExtendRejectsForeignView: Extend must refuse a view that is not an
// extension of the indexed one.
func TestExtendRejectsForeignView(t *testing.T) {
	m := chainHistory(xrand.New(6, 98), 20)
	other := chainHistory(xrand.New(7, 98), 20)
	tr := Build(m.ViewAt(10))
	for _, bad := range []appendmem.View{m.ViewAt(5), other.Read()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("Extend accepted a non-extension view")
				}
			}()
			tr.Extend(bad)
		}()
	}
}

// TestDifferentialPrefixQueries: one Tree of a memory answers for every
// prefix of it, the contract the harness's shared index rests on. The
// histories mix honest appends with withholding chains and forks off
// arbitrary old blocks (the Byzantine references); in a prefix of one
// memory a parent always precedes its child, so no block dangles. The
// Tree grows one block at a time, as a run's index does, and after every
// step HeightAt, TipsAt, TipFloorAt, Depth and PrefixValues at every
// prefix size up to it must equal those of a from-scratch Build of that
// prefix.
//
// A compacted Tree must still answer exactly for every prefix s with
// w <= TipFloorAt(s), which lets a windowed run compact its one shared
// index at the smallest floor of its live nodes. So each whole-memory
// Tree is also compacted at the tip floor of every prefix s0 in turn, and
// the top of every prefix from s0 on — height, longest tips, their floor
// and each tip's decision values — must still equal Build's.
func TestDifferentialPrefixQueries(t *testing.T) {
	histories := []func(*xrand.PCG, int) *appendmem.Memory{chainHistory, recentChainHistory}
	compacted := 0
	for h, history := range histories {
		for seed := uint64(1); seed <= 4; seed++ {
			m := history(xrand.New(seed, 97), 70)
			refs := make([]*Tree, m.Len()+1)
			for s := range refs {
				refs[s] = Build(m.ViewAt(s))
			}
			inc := Build(m.ViewAt(0))
			for built := 0; built <= m.Len(); built++ {
				inc.Extend(m.ViewAt(built))
				for s := 0; s <= built; s++ {
					assertSamePrefix(t, h, seed, s, inc, refs[s])
				}
			}
			for s0 := 1; s0 <= m.Len(); s0++ {
				tr := Build(m.Read())
				if tr.Compact(int(tr.TipFloorAt(s0))) == 0 {
					continue // Compact declined: nothing frozen to test
				}
				compacted++
				for s := s0; s <= m.Len(); s++ {
					assertSameTop(t, h, seed, s, tr, refs[s])
				}
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no history let Compact freeze a prefix; the compacted queries went unchecked")
	}
	t.Logf("%d compacted trees checked", compacted)
}

// assertSameTop compares the top of prefix s — the height, the longest
// tips, their floor and the decision values of every tip — which is all a
// chain rule reads at a view of size s.
func assertSameTop(t *testing.T, h int, seed uint64, s int, inc, ref *Tree) {
	t.Helper()
	if got, want := inc.HeightAt(s), ref.Height(); got != want {
		t.Fatalf("history %d seed %d: HeightAt(%d) = %d, Build gives %d", h, seed, s, got, want)
	}
	if got, want := inc.TipFloorAt(s), ref.TipFloor(); got != want {
		t.Fatalf("history %d seed %d: TipFloorAt(%d) = %d, Build gives %d", h, seed, s, got, want)
	}
	tips := inc.TipsAt(s)
	if want := ref.LongestTips(); !equalIDs(tips, want) {
		t.Fatalf("history %d seed %d: TipsAt(%d) = %v, Build gives %v", h, seed, s, tips, want)
	}
	for _, tip := range tips {
		for _, k := range []int{1, 3, ref.Height(), ref.Height() + 5} {
			if got, want := inc.PrefixValues(tip, k), ref.PrefixValues(tip, k); !slices.Equal(got, want) {
				t.Fatalf("history %d seed %d prefix %d: PrefixValues(%d, %d) = %v, Build gives %v", h, seed, s, tip, k, got, want)
			}
		}
	}
}

func assertSamePrefix(t *testing.T, h int, seed uint64, s int, inc, ref *Tree) {
	t.Helper()
	assertSameTop(t, h, seed, s, inc, ref)
	for id := appendmem.MsgID(0); int(id) < s; id++ {
		di, oki := inc.Depth(id)
		dr, okr := ref.Depth(id)
		if di != dr || oki != okr {
			t.Fatalf("history %d seed %d prefix %d: Depth(%d) = %d,%v, Build gives %d,%v", h, seed, s, id, di, oki, dr, okr)
		}
		for _, k := range []int{1, 3, di, di + 5} {
			if got, want := inc.PrefixValues(id, k), ref.PrefixValues(id, k); !slices.Equal(got, want) {
				t.Fatalf("history %d seed %d prefix %d: PrefixValues(%d, %d) = %v, Build gives %v", h, seed, s, id, k, got, want)
			}
		}
	}
}
