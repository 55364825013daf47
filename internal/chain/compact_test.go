package chain

import (
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// safeWatermarks returns, for every prefix size s, the largest watermark
// no block with id >= s reaches below: the minimum parent referenced by
// the suffix. Compacting the index to this bound is exactly the guarantee
// the agreement harness provides via the per-node tip floors.
func safeWatermarks(m *appendmem.Memory) []int {
	n := m.Len()
	suffMin := make([]int, n+1)
	suffMin[n] = n
	for i := n - 1; i >= 0; i-- {
		lo := suffMin[i+1]
		if i < lo {
			lo = i
		}
		for _, p := range m.Message(appendmem.MsgID(i)).Parents {
			if p != appendmem.None && int(p) < lo {
				lo = int(p)
			}
		}
		suffMin[i] = lo
	}
	return suffMin
}

// assertSameDecisions compares every decision-relevant observable of a
// compacted index against the full one: heights, tip sets, fork counts
// and the confirm-depth value prefixes that feed Decide.
func assertSameDecisions(t *testing.T, step int, pruned, full *Tree) {
	t.Helper()
	if pruned.Height() != full.Height() {
		t.Fatalf("prefix %d: height %d vs %d", step, pruned.Height(), full.Height())
	}
	if pruned.size != full.size {
		t.Fatalf("prefix %d: size %d vs %d", step, pruned.size, full.size)
	}
	if !equalIDs(pruned.LongestTips(), full.LongestTips()) {
		t.Fatalf("prefix %d: longest tips %v vs %v", step, pruned.LongestTips(), full.LongestTips())
	}
	if pruned.Forks() != full.Forks() {
		t.Fatalf("prefix %d: forks %d vs %d", step, pruned.Forks(), full.Forks())
	}
	for _, tip := range full.LongestTips() {
		// The pruned chain is the full chain above the anchor.
		pc, fc := pruned.ChainTo(tip), full.ChainTo(tip)
		if len(pc) > len(fc) || !equalIDs(pc, fc[len(fc)-len(pc):]) {
			t.Fatalf("prefix %d: chain to %d is %v, not a suffix of %v", step, tip, pc, fc)
		}
		for _, k := range []int{1, 3, 8, full.Height()} {
			pv, fv := pruned.PrefixValues(tip, k), full.PrefixValues(tip, k)
			if len(pv) != len(fv) {
				t.Fatalf("prefix %d: PrefixValues(%d,%d) length %d vs %d", step, tip, k, len(pv), len(fv))
			}
			for i := range pv {
				if pv[i] != fv[i] {
					t.Fatalf("prefix %d: PrefixValues(%d,%d)[%d] = %d vs %d", step, tip, k, i, pv[i], fv[i])
				}
			}
		}
	}
	// Live blocks must agree exactly on depth.
	for id := pruned.off; id < step; id++ {
		dp, okp := pruned.Depth(appendmem.MsgID(id))
		df, okf := full.Depth(appendmem.MsgID(id))
		if dp != df || okp != okf {
			t.Fatalf("prefix %d: depth(%d) %d,%v vs %d,%v", step, id, dp, okp, df, okf)
		}
	}
}

// recentChainHistory forks and withholds only off recent blocks (like
// nodes bounded by Δ staleness do), so reachability floors — and with
// them the compaction watermark — advance steadily. The genesis-forking
// histories above pin correctness when compaction must decline; this one
// pins it when compaction actually runs.
func recentChainHistory(rng *xrand.PCG, steps int) *appendmem.Memory {
	n := 4
	m := appendmem.New(n)
	for s := 0; s < steps; s++ {
		w := m.Writer(appendmem.NodeID(rng.Intn(n)))
		if m.Len() > 0 && rng.Intn(3) == 0 {
			// Fork off one of the last few blocks (a stale or withheld tip).
			back := rng.Intn(6) + 1
			if back > m.Len() {
				back = m.Len()
			}
			w.MustAppend(-1, 0, []appendmem.MsgID{appendmem.MsgID(m.Len() - back)})
			continue
		}
		tip := appendmem.None
		if tips := Build(m.Read()).LongestTips(); len(tips) > 0 {
			tip = tips[rng.Intn(len(tips))]
		}
		w.MustAppend(int64(s), 0, []appendmem.MsgID{tip})
	}
	return m
}

// TestDifferentialCompactVsFull: on every prefix of randomized histories, an
// index compacted as aggressively as the reachability bound allows must
// agree with the full index on every decision observable — the pruned ==
// unpruned pin of the bounded-memory mode. The pruned index reads its own
// copy of the memory, retired at every prefix to the reachability bound —
// at or above the watermark Compact achieves, as the harness retires at
// the nodes' floors whether or not an index compacts — so an index that
// reads an ingested message back from the view panics.
func TestDifferentialCompactVsFull(t *testing.T) {
	histories := []func(*xrand.PCG, int) *appendmem.Memory{chainHistory, recentChainHistory}
	compacted := 0
	for _, history := range histories {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := xrand.New(seed, 99)
			m := history(rng, 80)
			safe := safeWatermarks(m)
			windowed := m.Clone()
			pruned := Build(windowed.ViewAt(0))
			full := Build(m.ViewAt(0))
			for s := 1; s <= m.Len(); s++ {
				pruned.Extend(windowed.ViewAt(s))
				full.Extend(m.ViewAt(s))
				w := pruned.Compact(safe[s])
				if w != pruned.off {
					t.Fatalf("prefix %d: Compact returned %d, watermark %d", s, w, pruned.off)
				}
				if w > 0 {
					compacted++
				}
				windowed.Retire(safe[s])
				assertSameDecisions(t, s, pruned, full)
			}
		}
	}
	if compacted == 0 {
		t.Fatal("no history ever allowed retirement; the differential is vacuous")
	}
}

// TestCompactMonotoneAndBounded: the watermark never regresses, never
// exceeds the request, and queries below it panic.
func TestCompactMonotoneAndBounded(t *testing.T) {
	rng := xrand.New(3, 99)
	m := chainHistory(rng, 60)
	safe := safeWatermarks(m)
	tr := Build(m.Read())
	w := tr.Compact(safe[m.Len()])
	if w > safe[m.Len()] {
		t.Fatalf("Compact overshot: %d > %d", w, safe[m.Len()])
	}
	if again := tr.Compact(w); again != w {
		t.Fatalf("re-Compact moved the watermark: %d -> %d", w, again)
	}
	if down := tr.Compact(w - 5); down != w {
		t.Fatalf("Compact regressed the watermark: %d -> %d", w, down)
	}
	if w == 0 {
		t.Skip("history never allowed retirement; nothing to panic on")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Depth below the watermark did not panic")
		}
	}()
	tr.Depth(appendmem.MsgID(w - 1))
}

// TestCompactDeclinesUnsafeWatermark: when a live fork still reaches below
// the requested watermark, Compact must refuse rather than freeze an
// anchor a later query would walk past.
func TestCompactDeclinesUnsafeWatermark(t *testing.T) {
	m := appendmem.New(2)
	w0, w1 := m.Writer(0), m.Writer(1)
	// A linear chain by node 0, plus a node-1 fork hanging off the genesis
	// child: no anchor above id 0 can cover it.
	root := w0.MustAppend(1, 0, []appendmem.MsgID{appendmem.None})
	prev := root.ID
	for i := 0; i < 10; i++ {
		prev = w0.MustAppend(1, 0, []appendmem.MsgID{prev}).ID
	}
	w1.MustAppend(-1, 0, []appendmem.MsgID{root.ID})
	tr := Build(m.Read())
	if w := tr.Compact(8); w > int(root.ID)+1 {
		t.Fatalf("Compact froze past a live fork: watermark %d", w)
	}
}
