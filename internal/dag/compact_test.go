package dag

import (
	"slices"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/xrand"
)

// safeWatermarks returns, for every prefix size s, the largest watermark
// no block with id >= s reaches below: the minimum parent referenced by
// the suffix, over all parent edges. Compacting to this bound is exactly
// the guarantee the agreement harness provides via per-node tip floors.
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

// assertSameDagDecisions compares every decision-relevant observable of a
// compacted index against the full one: sizes, heights, tip sets, the live
// pivot segments under both rules, the ordered value prefixes that feed
// Decide, and per-block depth/weight/ancestry over the live window.
func assertSameDagDecisions(t *testing.T, step int, pruned, full *Dag) {
	t.Helper()
	if pruned.Size() != full.Size() {
		t.Fatalf("prefix %d: size %d vs %d", step, pruned.Size(), full.Size())
	}
	if pruned.Height() != full.Height() {
		t.Fatalf("prefix %d: height %d vs %d", step, pruned.Height(), full.Height())
	}
	if !equalIDs(pruned.Tips(), full.Tips()) {
		t.Fatalf("prefix %d: tips %v vs %v", step, pruned.Tips(), full.Tips())
	}
	pg, fg := pruned.GhostPivot(), full.GhostPivot()
	pl, fl := pruned.LongestPivot(), full.LongestPivot()
	if len(pg) > len(fg) || !equalIDs(pg, fg[len(fg)-len(pg):]) {
		t.Fatalf("prefix %d: ghost pivot %v is not a suffix of %v", step, pg, fg)
	}
	if len(pl) > len(fl) || !equalIDs(pl, fl[len(fl)-len(pl):]) {
		t.Fatalf("prefix %d: longest pivot %v is not a suffix of %v", step, pl, fl)
	}
	for _, k := range []int{1, 3, 8, full.Size()} {
		pv, fv := pruned.OrderedValues(pg, k), full.OrderedValues(fg, k)
		if len(pv) != len(fv) {
			t.Fatalf("prefix %d: ghost OrderedValues(%d) length %d vs %d", step, k, len(pv), len(fv))
		}
		for i := range pv {
			if pv[i] != fv[i] {
				t.Fatalf("prefix %d: ghost OrderedValues(%d)[%d] = %d vs %d", step, k, i, pv[i], fv[i])
			}
		}
		pv, fv = pruned.OrderedValues(pl, k), full.OrderedValues(fl, k)
		for i := range pv {
			if pv[i] != fv[i] {
				t.Fatalf("prefix %d: longest OrderedValues(%d)[%d] = %d vs %d", step, k, i, pv[i], fv[i])
			}
		}
	}
	for id := pruned.off; id < step; id++ {
		mid := appendmem.MsgID(id)
		if pruned.Contains(mid) != full.Contains(mid) {
			t.Fatalf("prefix %d: Contains(%d) differs", step, id)
		}
		dp, okp := pruned.Depth(mid)
		df, okf := full.Depth(mid)
		if dp != df || okp != okf {
			t.Fatalf("prefix %d: depth(%d) %d,%v vs %d,%v", step, id, dp, okp, df, okf)
		}
		if pruned.Weight(mid) != full.Weight(mid) {
			t.Fatalf("prefix %d: weight(%d) %d vs %d", step, id, pruned.Weight(mid), full.Weight(mid))
		}
		// The pruned cone is the full cone truncated at the watermark.
		fc := full.PastCone(mid)
		var lc []appendmem.MsgID
		for _, c := range fc {
			if int(c) >= pruned.off {
				lc = append(lc, c)
			}
		}
		if !equalIDs(pruned.PastCone(mid), lc) {
			t.Fatalf("prefix %d: past cone(%d) differs above the watermark", step, id)
		}
	}
	// Ancestry over live pairs must agree: whether each pivot block lies in
	// each tip's past cone.
	for _, b := range pruned.Tips() {
		pc, fc := pruned.PastCone(b), full.PastCone(b)
		for _, a := range pg {
			if slices.Contains(pc, a) != slices.Contains(fc, a) {
				t.Fatalf("prefix %d: %d in past cone of %d differs", step, a, b)
			}
		}
	}
}

// recentDagHistory mixes honest inclusive appends with forks and private
// extensions that only reach a few blocks back (like nodes bounded by Δ
// staleness), so reachability floors — and with them the compaction
// watermark — advance steadily. adversarialHistory pins correctness when
// compaction must decline; this one pins it when compaction actually runs.
func recentDagHistory(rng *xrand.PCG, steps int) *appendmem.Memory {
	n := 4
	m := appendmem.New(n)
	for s := 0; s < steps; s++ {
		w := m.Writer(appendmem.NodeID(rng.Intn(n)))
		if m.Len() > 0 && rng.Intn(3) == 0 {
			// Fork: one or two parents among the last few blocks.
			var parents []appendmem.MsgID
			for j := 0; j < 1+rng.Intn(2); j++ {
				back := rng.Intn(6) + 1
				if back > m.Len() {
					back = m.Len()
				}
				parents = append(parents, appendmem.MsgID(m.Len()-back))
			}
			w.MustAppend(-1, 0, parents)
			continue
		}
		d := Build(m.Read())
		tips := d.Tips()
		if len(tips) == 0 {
			w.MustAppend(int64(s), 0, nil)
			continue
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
	return m
}

// TestDifferentialCompactVsFull: on every prefix of randomized histories,
// an index compacted as aggressively as the reachability bound allows must
// agree with the full index on every decision observable — the pruned ==
// unpruned pin of the bounded-memory mode.
func TestDifferentialCompactVsFull(t *testing.T) {
	histories := []func(*xrand.PCG, int) *appendmem.Memory{adversarialHistory, recentDagHistory}
	compacted := 0
	for _, history := range histories {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := xrand.New(seed, 99)
			m := history(rng, 80)
			safe := safeWatermarks(m)
			pruned := Build(m.ViewAt(0))
			full := Build(m.ViewAt(0))
			for s := 1; s <= m.Len(); s++ {
				view := m.ViewAt(s)
				pruned.Extend(view)
				full.Extend(view)
				w := pruned.Compact(safe[s])
				if w != pruned.off {
					t.Fatalf("prefix %d: Compact returned %d, watermark %d", s, w, pruned.off)
				}
				if w > 0 {
					compacted++
				}
				assertSameDagDecisions(t, s, pruned, full)
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
	m := recentDagHistory(rng, 60)
	safe := safeWatermarks(m)
	d := Build(m.Read())
	w := d.Compact(safe[m.Len()])
	if w > safe[m.Len()] {
		t.Fatalf("Compact overshot: %d > %d", w, safe[m.Len()])
	}
	if again := d.Compact(w); again != w {
		t.Fatalf("re-Compact moved the watermark: %d -> %d", w, again)
	}
	if down := d.Compact(w - 5); down != w {
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
	d.Depth(appendmem.MsgID(w - 1))
}

// TestCompactDeclinesUnsafeWatermark: when a live fork still reaches below
// the requested watermark, Compact must refuse rather than freeze an
// anchor a later traversal would walk past.
func TestCompactDeclinesUnsafeWatermark(t *testing.T) {
	m := appendmem.New(2)
	w0, w1 := m.Writer(0), m.Writer(1)
	// A linear chain by node 0, plus a node-1 fork hanging off the genesis
	// child: no anchor above id 0 can tree-cover it.
	root := w0.MustAppend(1, 0, []appendmem.MsgID{appendmem.None})
	prev := root.ID
	for i := 0; i < 10; i++ {
		prev = w0.MustAppend(1, 0, []appendmem.MsgID{prev}).ID
	}
	w1.MustAppend(-1, 0, []appendmem.MsgID{root.ID})
	d := Build(m.Read())
	if w := d.Compact(8); w > int(root.ID)+1 {
		t.Fatalf("Compact froze past a live fork: watermark %d", w)
	}
}

// TestWeightStepsBoundaryStream drives the E23a "dag / boundary" stream: a
// bounded memory with a 1024-message window, the index extended and
// compacted every 256 appends, and every 64 steps a fork pinned just above
// the retirement floor and merged into the next main block, so Compact
// declines and every carry runs back to the genesis. Weight work must stay
// within 2·blocks + batches·(height+1); a per-block walk to the genesis
// costs O(blocks × height) here and fails the bound.
func TestWeightStepsBoundaryStream(t *testing.T) {
	const steps, window, stride, forkEvery = 8192, 1024, 256, 64
	m := appendmem.NewBounded(8, window/8)
	c := NewCached()
	tip := appendmem.None
	var open []appendmem.MsgID
	batches := 0
	for i := 0; i < steps; i++ {
		w := m.Writer(appendmem.NodeID(i % 8))
		switch {
		case i%forkEvery == forkEvery/2-1 && tip > 32:
			fork := w.MustAppend(1, 0, []appendmem.MsgID{appendmem.MsgID(m.Watermark() + 8)})
			open = append(open, fork.ID)
		case tip == appendmem.None:
			tip = w.MustAppend(1, 0, nil).ID
		default:
			tip = w.MustAppend(1, 0, append([]appendmem.MsgID{tip}, open...)).ID
			open = open[:0]
		}
		if (i+1)%stride == 0 {
			if floor := m.Len() - window; floor > 0 {
				c.At(m.Read())
				batches++
				c.CompactTo(floor)
				m.Retire(floor)
			}
		}
	}
	d := c.At(m.Read())
	batches++
	if d.Watermark() > 2*window {
		t.Fatalf("Compact reached watermark %d: the boundary fork no longer pins the history", d.Watermark())
	}
	bound := 2*d.Size() + batches*(d.Height()+1)
	t.Logf("%d blocks, %d batches, height %d: %d weight steps (bound %d)",
		d.Size(), batches, d.Height(), d.WeightSteps(), bound)
	if d.WeightSteps() > bound {
		t.Fatalf("%d weight steps for %d blocks in %d batches at height %d, want <= %d",
			d.WeightSteps(), d.Size(), batches, d.Height(), bound)
	}
}
