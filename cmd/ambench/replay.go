package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// replayStats accumulates the layer costs measured by replaying a traced
// trial's recorded call streams on fresh indexes, outside the harness.
// Each index layer uses the fields it has: the chain selects a tip and
// reads its prefix, the DAG computes a pivot and orders values.
type replayStats struct {
	trials int

	extend, selectTip, prefix, pivot, order time.Duration
	blocks                                  int // blocks ingested by the indexes
	orderCalls                              int
	orderAllocs                             uint64
	useful, linearized                      int // (k+confirm) values wanted vs ids ordered, summed

	appendTime   time.Duration
	appends      int
	appendAllocs uint64

	visTime    time.Duration
	deliveries int
}

// total is the time the replays attribute to layers below the rule.
func (st *replayStats) total() time.Duration {
	return st.extend + st.selectTip + st.prefix + st.pivot + st.order + st.appendTime + st.visTime
}

// since adds the time elapsed since t0 to d and returns the current time.
func since(d *time.Duration, t0 time.Time) time.Time {
	now := time.Now()
	*d += now.Sub(t0)
	return now
}

// grown is the number of blocks an index ingests moving from a view of
// size prev to one of size n: the suffix when the view grew, everything
// when the index must rebuild.
func grown(prev *int, n int) int {
	d := n - *prev
	if d < 0 {
		d = n
	}
	*prev = n
	return d
}

// replayChain drives every node's recorded streams through fresh chain
// indexes, as chainba does, and checks each replayed parent and decision
// against what the run recorded. Tie-breaks get no rng: the caller replays
// deterministic tie-breakers only.
func replayChain(st *replayStats, rec *trialRec, mem *appendmem.Memory, rule chainba.Rule, k int) error {
	for id, nc := range rec.nodes {
		app, dec := chain.NewCached(), chain.NewCached()
		appSize, decSize := 0, 0
		for _, c := range nc.appends {
			view := mem.ViewAt(c.size)
			t := time.Now()
			tree := app.At(view)
			t = since(&st.extend, t)
			tip := appendmem.None
			if tips := tree.LongestTips(); len(tips) > 0 {
				tip = rule.TB.Pick(tips, view, nil)
			}
			since(&st.selectTip, t)
			st.blocks += grown(&appSize, c.size)
			if got := chain.Parent(mem.Message(c.msg)); got != tip {
				return fmt.Errorf("chain replay: node %d append on a view of %d: replay picked parent %d, the run used %d", id, c.size, tip, got)
			}
		}
		for _, c := range nc.decides {
			view := mem.ViewAt(c.size)
			t := time.Now()
			tree := dec.At(view)
			t = since(&st.extend, t)
			st.blocks += grown(&decSize, c.size)
			var v int64
			ok := tree.Height() >= k+rule.Confirm
			if ok {
				tip := rule.TB.Pick(tree.LongestTips(), view, nil)
				t = since(&st.selectTip, t)
				v = node.SumSign(tree.PrefixValues(tip, k))
				since(&st.prefix, t)
			}
			if v != c.v || ok != c.ok {
				return fmt.Errorf("chain replay: node %d decide on a view of %d: replay (%d, %v), the run (%d, %v)", id, c.size, v, ok, c.v, c.ok)
			}
		}
	}
	return nil
}

// replayDag drives every node's recorded streams through fresh DAG
// indexes, as dagba does, and checks each replayed parent set and decision
// against what the run recorded. A second, untimed pass over the decision
// streams counts OrderedValues' allocations and how many ids each call
// linearizes, so neither measurement disturbs the timed one.
func replayDag(st *replayStats, rec *trialRec, mem *appendmem.Memory, rule dagba.Rule, k int) error {
	want := k + rule.Confirm
	for id, nc := range rec.nodes {
		app, dec := dag.NewCached(), dag.NewCached()
		appSize, decSize := 0, 0
		for _, c := range nc.appends {
			t := time.Now()
			d := app.At(mem.ViewAt(c.size))
			t = since(&st.extend, t)
			st.blocks += grown(&appSize, c.size)
			var parents []appendmem.MsgID
			if tips := d.Tips(); len(tips) > 0 {
				pivot := rule.Pivot.Pivot(d)
				since(&st.pivot, t)
				pivotTip := pivot[len(pivot)-1]
				parents = append(parents, pivotTip)
				for _, tip := range tips {
					if tip != pivotTip {
						parents = append(parents, tip)
					}
				}
			}
			if got := mem.Message(c.msg).Parents; !slices.Equal(got, parents) {
				return fmt.Errorf("dag replay: node %d append on a view of %d: replay parents %v, the run used %v", id, c.size, parents, got)
			}
		}
		for _, c := range nc.decides {
			t := time.Now()
			d := dec.At(mem.ViewAt(c.size))
			t = since(&st.extend, t)
			st.blocks += grown(&decSize, c.size)
			pivot := rule.Pivot.Pivot(d)
			t = since(&st.pivot, t)
			vals := d.OrderedValues(pivot, want)
			since(&st.order, t)
			var v int64
			ok := len(vals) >= want
			if ok {
				v = node.SumSign(vals[:k])
			}
			if v != c.v || ok != c.ok {
				return fmt.Errorf("dag replay: node %d decide on a view of %d: replay (%d, %v), the run (%d, %v)", id, c.size, v, ok, c.v, c.ok)
			}
		}

		counted := dag.NewCached()
		var before, after runtime.MemStats
		for _, c := range nc.decides {
			d := counted.At(mem.ViewAt(c.size))
			pivot := rule.Pivot.Pivot(d)
			runtime.ReadMemStats(&before)
			d.OrderedValues(pivot, want)
			runtime.ReadMemStats(&after)
			st.orderAllocs += after.Mallocs - before.Mallocs
			n := len(d.Linearize(pivot))
			st.linearized += n
			st.useful += min(want, n)
		}
		st.orderCalls += len(nc.decides)
	}
	return nil
}

// replayAppends re-appends the run's messages, in order, into a fresh
// memory.
func replayAppends(st *replayStats, mem *appendmem.Memory) {
	fresh := appendmem.New(mem.NumNodes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for id := 0; id < mem.Len(); id++ {
		m := mem.Message(appendmem.MsgID(id))
		fresh.Writer(m.Author).MustAppend(m.Value, m.Round, m.Parents)
	}
	since(&st.appendTime, t)
	runtime.ReadMemStats(&after)
	st.appends += mem.Len()
	st.appendAllocs += after.Mallocs - before.Mallocs
}

// visStream reproduces the harness's visibility rng: RunRandomized splits
// its root stream into the authority's, the adversary's, one per node and,
// with a topology, the visibility stream. replayVisibility's mean-lag check
// catches the harness changing that order.
func visStream(seed uint64, n int) *xrand.PCG {
	root := xrand.New(seed, 0xA11CE)
	for i := 0; i < n+2; i++ {
		root.Split()
	}
	return root.Split()
}

// replayVisibility re-floods the run's appends over the topology at their
// recorded times, with a fresh simulator and memory, up to the instant the
// run ended. The replayed mean propagation lag must equal the run's.
func replayVisibility(st *replayStats, rec *trialRec, res *agreement.Result, g *topology.Graph, dm topology.DelayModel) error {
	s := sim.New()
	fresh := appendmem.New(res.Cfg.N)
	vis := access.NewVisibility(s, visStream(res.Cfg.Seed, res.Cfg.N), g, dm, fresh)
	for id, at := range rec.appendAt {
		m := res.Mem.Message(appendmem.MsgID(id))
		s.At(at, func() {
			fresh.Writer(m.Author).MustAppend(m.Value, m.Round, m.Parents)
			vis.Sync()
		})
	}
	t := time.Now()
	s.RunUntil(res.Duration)
	since(&st.visTime, t)
	st.deliveries += vis.Deliveries()
	if got := vis.MeanLag(); got != res.VisMeanLag {
		return fmt.Errorf("visibility replay: mean lag %v, the run %v", got, res.VisMeanLag)
	}
	return nil
}
