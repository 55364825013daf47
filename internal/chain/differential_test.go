package chain

import (
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
