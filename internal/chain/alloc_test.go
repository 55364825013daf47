package chain

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// chainStepBudget bounds the allocations of one incremental Cached.At
// step (view grows by one message) plus a LongestTips query. Ingesting the
// message appends one block record, amortized to no allocation; the one
// allocation left is LongestTips' copy of the tip set.
const chainStepBudget = 1

func TestCachedExtendStepAllocBudget(t *testing.T) {
	m := appendmem.New(8)
	rng := xrand.New(9, 9)
	var ids []appendmem.MsgID
	for i := 0; i < 1200; i++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			parents = append(parents, ids[rng.Intn(len(ids))])
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, parents)
		ids = append(ids, msg.ID)
	}

	c := NewCached()
	size := 1000
	c.At(m.ViewAt(size))

	allocs := testing.AllocsPerRun(100, func() {
		size++
		tree := c.At(m.ViewAt(size))
		_ = tree.LongestTips()
	})
	if allocs > chainStepBudget {
		t.Fatalf("one cached extend step allocated %.1f times, budget %d", allocs, chainStepBudget)
	}
}
