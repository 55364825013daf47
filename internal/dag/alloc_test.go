package dag

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// dagStepBudget bounds the allocations of one incremental Cached.At step
// (view grows by one message) plus a GhostPivot query. The extend appends
// one block record into amortized capacity; the pivot walk allocates its
// returned slice once. The count must stay independent of the history
// length.
const dagStepBudget = 1

// randomMemory appends n blocks, each with one or two random earlier
// parents, from eight authors.
func randomMemory(n int) *appendmem.Memory {
	m := appendmem.New(8)
	rng := xrand.New(9, 9)
	var ids []appendmem.MsgID
	for i := 0; i < n; i++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			for j := 0; j < 1+rng.Intn(2); j++ {
				parents = append(parents, ids[rng.Intn(len(ids))])
			}
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, parents)
		ids = append(ids, msg.ID)
	}
	return m
}

func TestCachedExtendStepAllocBudget(t *testing.T) {
	m := randomMemory(1200)
	c := NewCached()
	size := 1000
	c.At(m.ViewAt(size))

	allocs := testing.AllocsPerRun(100, func() {
		size++
		d := c.At(m.ViewAt(size))
		_ = d.GhostPivot()
	})
	if allocs > dagStepBudget {
		t.Fatalf("one cached extend step allocated %.1f times, budget %d", allocs, dagStepBudget)
	}
}

// TestOrderedValuesAllocs: a warm OrderedValues on a Cached index orders
// into index-owned scratch, so its only allocation is the returned slice —
// for a short decision prefix and for one covering the whole order.
func TestOrderedValuesAllocs(t *testing.T) {
	m := randomMemory(1000)
	d := NewCached().At(m.Read())
	pivot := d.GhostPivot()
	for _, k := range []int{41, 2000} {
		d.OrderedValues(pivot, k) // warm the scratch buffers
		allocs := testing.AllocsPerRun(50, func() { _ = d.OrderedValues(pivot, k) })
		if allocs != 1 {
			t.Fatalf("OrderedValues(k=%d) allocated %.1f times, want 1 (the returned slice)", k, allocs)
		}
	}
}
