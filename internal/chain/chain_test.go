package chain

import (
	"testing"
	"testing/quick"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// buildLinear appends a chain of length k by node 0 and returns the memory.
func buildLinear(k int) *appendmem.Memory {
	m := appendmem.New(2)
	parent := appendmem.None
	for i := 0; i < k; i++ {
		msg := m.Writer(0).MustAppend(int64(i), 0, []appendmem.MsgID{parent})
		parent = msg.ID
	}
	return m
}

func TestEmptyView(t *testing.T) {
	m := appendmem.New(2)
	tr := Build(m.Read())
	if tr.Height() != 0 {
		t.Fatalf("height = %d", tr.Height())
	}
	if tips := tr.LongestTips(); tips != nil {
		t.Fatalf("tips = %v", tips)
	}
	if got := tr.SelectedChain(FirstTieBreaker{}); got != nil {
		t.Fatalf("SelectedChain on an empty view = %v", got)
	}
}

func TestLinearChain(t *testing.T) {
	m := buildLinear(5)
	tr := Build(m.Read())
	if tr.Height() != 5 {
		t.Fatalf("height = %d, want 5", tr.Height())
	}
	tips := tr.LongestTips()
	if len(tips) != 1 || tips[0] != 4 {
		t.Fatalf("tips = %v", tips)
	}
	chain := tr.ChainTo(tips[0])
	if len(chain) != 5 {
		t.Fatalf("chain length = %d", len(chain))
	}
	for i, id := range chain {
		if int(id) != i {
			t.Fatalf("chain[%d] = %d", i, id)
		}
	}
}

func TestFork(t *testing.T) {
	m := appendmem.New(3)
	root := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{root.ID})
	b := m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{root.ID})
	tr := Build(m.Read())
	if tr.Height() != 2 {
		t.Fatalf("height = %d", tr.Height())
	}
	tips := tr.LongestTips()
	if len(tips) != 2 || tips[0] != a.ID || tips[1] != b.ID {
		t.Fatalf("tips = %v", tips)
	}
	// Both tips lie on some longest chain, so no block is wasted yet.
	if got := tr.Forks(); got != 0 {
		t.Fatalf("forks = %d, want 0", got)
	}
}

func TestForksCountsOrphans(t *testing.T) {
	m := appendmem.New(3)
	root := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{root.ID})
	m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{root.ID}) // sibling, orphaned below
	m.Writer(1).MustAppend(3, 0, []appendmem.MsgID{a.ID})    // extends a: unique longest
	tr := Build(m.Read())
	if tr.Height() != 3 {
		t.Fatalf("height = %d", tr.Height())
	}
	if got := tr.Forks(); got != 1 {
		t.Fatalf("forks = %d, want 1", got)
	}
}

func TestDanglingParentExcluded(t *testing.T) {
	// A block referencing a parent outside the view must not count.
	m := appendmem.New(2)
	root := m.Writer(0).MustAppend(0, 0, nil)
	m.Writer(1).MustAppend(1, 0, []appendmem.MsgID{root.ID})
	partial := m.ViewAt(1) // only root visible
	tr := Build(partial)
	if tr.Height() != 1 {
		t.Fatalf("height = %d, want 1", tr.Height())
	}
	full := Build(m.Read())
	if full.Height() != 2 {
		t.Fatalf("full height = %d, want 2", full.Height())
	}
}

// childrenOf derives from the parent records the live blocks in the tree
// whose chain parent is id, in arrival order. The index keeps no child
// lists; this is the test's own reference.
func childrenOf(tr *Tree, id appendmem.MsgID) []appendmem.MsgID {
	var kids []appendmem.MsgID
	for i, b := range tr.blocks {
		if b.depth != 0 && b.parent == id {
			kids = append(kids, appendmem.MsgID(tr.off+i))
		}
	}
	return kids
}

// subtree counts the live blocks in the subtree rooted at id, id included,
// from the parent records; 0 when id is not in the tree. Parents precede
// children, so one ascending pass collects every descendant.
func subtree(tr *Tree, id appendmem.MsgID) int {
	if _, ok := tr.Depth(id); !ok {
		return 0
	}
	in := map[appendmem.MsgID]bool{id: true}
	for i := int(id) + 1 - tr.off; i < len(tr.blocks); i++ {
		if b := tr.blocks[i]; b.depth != 0 && in[b.parent] {
			in[appendmem.MsgID(tr.off+i)] = true
		}
	}
	return len(in)
}

func TestSubtree(t *testing.T) {
	m := appendmem.New(2)
	root := m.Writer(0).MustAppend(0, 0, nil)
	a := m.Writer(0).MustAppend(1, 0, []appendmem.MsgID{root.ID})
	m.Writer(1).MustAppend(2, 0, []appendmem.MsgID{root.ID})
	m.Writer(1).MustAppend(3, 0, []appendmem.MsgID{a.ID})
	tr := Build(m.Read())
	if got := subtree(tr, root.ID); got != 4 {
		t.Fatalf("subtree(root) = %d, want 4", got)
	}
	if got := subtree(tr, a.ID); got != 2 {
		t.Fatalf("subtree(a) = %d, want 2", got)
	}
	if got := subtree(tr, 99); got != 0 {
		t.Fatalf("subtree(unknown) = %d, want 0", got)
	}
}

func TestTieBreakers(t *testing.T) {
	m := appendmem.New(3)
	root := m.Writer(0).MustAppend(0, 0, nil)
	correctTip := m.Writer(0).MustAppend(1, 0, []appendmem.MsgID{root.ID})
	byzTip := m.Writer(2).MustAppend(2, 0, []appendmem.MsgID{root.ID})
	view := m.Read()
	tips := Build(view).LongestTips()
	if len(tips) != 2 {
		t.Fatalf("tips = %v", tips)
	}

	if got := (FirstTieBreaker{}).Pick(tips, view, nil); got != correctTip.ID {
		t.Errorf("FirstTieBreaker picked %d, want %d", got, correctTip.ID)
	}

	adv := AdversarialTieBreaker{IsByzantine: func(id appendmem.NodeID) bool { return id == 2 }}
	if got := adv.Pick(tips, view, nil); got != byzTip.ID {
		t.Errorf("AdversarialTieBreaker picked %d, want %d", got, byzTip.ID)
	}

	advNone := AdversarialTieBreaker{IsByzantine: func(appendmem.NodeID) bool { return false }}
	if got := advNone.Pick(tips, view, nil); got != correctTip.ID {
		t.Errorf("AdversarialTieBreaker without byz tips picked %d", got)
	}

	rng := xrand.New(1, 1)
	counts := map[appendmem.MsgID]int{}
	for i := 0; i < 1000; i++ {
		counts[(RandomTieBreaker{}).Pick(tips, view, rng)]++
	}
	if counts[correctTip.ID] < 400 || counts[byzTip.ID] < 400 {
		t.Errorf("RandomTieBreaker not uniform: %v", counts)
	}
}

func TestPrefixValues(t *testing.T) {
	m := buildLinear(6)
	tr := Build(m.Read())
	tip := tr.LongestTips()[0]
	vals := tr.PrefixValues(tip, 4)
	if len(vals) != 4 {
		t.Fatalf("len = %d", len(vals))
	}
	for i, v := range vals {
		if v != int64(i) {
			t.Fatalf("vals[%d] = %d", i, v)
		}
	}
	all := tr.PrefixValues(tip, 100)
	if len(all) != 6 {
		t.Fatalf("over-long prefix = %d values", len(all))
	}
}

func TestChainToUnknown(t *testing.T) {
	m := buildLinear(2)
	tr := Build(m.Read())
	if got := tr.ChainTo(55); got != nil {
		t.Fatalf("ChainTo(unknown) = %v", got)
	}
}

func TestPropertyLongestTipsMaximal(t *testing.T) {
	// Property: for random trees, every longest tip has depth == Height,
	// ChainTo(tip) has exactly Height blocks, and consecutive chain blocks
	// are parent-linked.
	rng := xrand.New(9, 9)
	if err := quick.Check(func(steps uint8) bool {
		n := 4
		m := appendmem.New(n)
		var ids []appendmem.MsgID
		for s := 0; s < int(steps%50)+1; s++ {
			parent := appendmem.None
			if len(ids) > 0 {
				parent = ids[rng.Intn(len(ids))]
			}
			msg := m.Writer(appendmem.NodeID(rng.Intn(n))).MustAppend(1, 0, []appendmem.MsgID{parent})
			ids = append(ids, msg.ID)
		}
		tr := Build(m.Read())
		tips := tr.LongestTips()
		if len(tips) == 0 {
			return tr.Height() == 0
		}
		for _, tip := range tips {
			d, ok := tr.Depth(tip)
			if !ok || d != tr.Height() {
				return false
			}
			chain := tr.ChainTo(tip)
			if len(chain) != tr.Height() {
				return false
			}
			for i := 1; i < len(chain); i++ {
				if Parent(m.Message(chain[i])) != chain[i-1] {
					return false
				}
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySubtreeSum(t *testing.T) {
	// Property: sum of subtree sizes over genesis children equals total
	// number of non-dangling blocks.
	rng := xrand.New(10, 10)
	if err := quick.Check(func(steps uint8) bool {
		m := appendmem.New(3)
		var ids []appendmem.MsgID
		for s := 0; s < int(steps%40)+1; s++ {
			parent := appendmem.None
			if len(ids) > 0 && rng.Bool() {
				parent = ids[rng.Intn(len(ids))]
			}
			msg := m.Writer(appendmem.NodeID(rng.Intn(3))).MustAppend(1, 0, []appendmem.MsgID{parent})
			ids = append(ids, msg.ID)
		}
		tr := Build(m.Read())
		total := 0
		for _, r := range childrenOf(tr, appendmem.None) {
			total += subtree(tr, r)
		}
		return total == m.Len()
	}, nil); err != nil {
		t.Error(err)
	}
}
