// Package repro_test holds the repository-level benchmark harness: one
// benchmark per experiment (E1–E24, see DESIGN.md's index), each of which
// regenerates its experiment's tables — the same rows `amexp -e <id>`
// prints — plus the single-line JSON record the same Result serializes
// to, and reports the experiment's key figure as a custom metric.
// Run with -v to see the tables inline:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkE10 -v
//
// Micro-benchmarks of the substrates (append memory, chain/DAG indexing,
// full protocol runs) follow the experiment benchmarks.
package repro_test

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/agreement/syncba"
	"repro/internal/agreement/timestamp"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/dag"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// runExperiment drives one experiment per iteration and logs its tables
// plus the structured JSON record the same Result serializes to.
func runExperiment(b *testing.B, id string, trials int) []*experiments.Table {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var r *experiments.Result
	for i := 0; i < b.N; i++ {
		r = experiments.Run(e, experiments.Options{Quick: true, Trials: trials, Seed: 1})
	}
	for _, t := range r.Tables {
		b.Log("\n" + report.TableText(t))
	}
	if line, err := report.JSONLine(r); err == nil {
		b.Log(line)
	} else {
		b.Fatalf("result does not serialize: %v", err)
	}
	return r.Tables
}

// cellValue reads a numeric cell, failing the benchmark otherwise.
func cellValue(b *testing.B, c experiments.Cell) float64 {
	b.Helper()
	v, ok := c.Value()
	if !ok {
		b.Fatalf("cell %+v not numeric", c)
	}
	return v
}

// lastRate reads the last row's numeric cell at col.
func lastRate(b *testing.B, t *experiments.Table, col int) float64 {
	b.Helper()
	return cellValue(b, t.Rows[len(t.Rows)-1][col])
}

func BenchmarkE1_AsyncImpossibility(b *testing.B) {
	tables := runExperiment(b, "E1", 0)
	violations := 0
	for _, row := range tables[0].Rows {
		if last := row[len(row)-1]; last.Kind == experiments.KindBool && !last.Bool {
			violations++
		}
	}
	b.ReportMetric(float64(violations)/float64(len(tables[0].Rows)), "theorem-holds-frac")
}

func BenchmarkE2_RoundLowerBound(b *testing.B) {
	tables := runExperiment(b, "E2", 10)
	// Key figure: agreement failure rate in the last truncated-round row
	// (rounds = t) of the last case.
	tbl := tables[0]
	var truncFail float64
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[4].Str, "failures") {
			truncFail = cellValue(b, row[3])
		}
	}
	b.ReportMetric(truncFail, "agr-fail-at-t-rounds")
}

func BenchmarkE3_SyncBA(b *testing.B) {
	tables := runExperiment(b, "E3", 8)
	b.ReportMetric(lastRate(b, tables[0], 2), "ok-rate-at-max-t")
}

func BenchmarkE4_Timestamps(b *testing.B) {
	tables := runExperiment(b, "E4", 20)
	b.ReportMetric(lastRate(b, tables[0], 1), "val-fail-at-max-k-tight")
}

func BenchmarkE5_ChainDetTieBreak(b *testing.B) {
	tables := runExperiment(b, "E5", 10)
	b.ReportMetric(lastRate(b, tables[0], 2), "validity-at-t-over-n-0.56")
}

func BenchmarkE6_ChainRandTieBreak(b *testing.B) {
	tables := runExperiment(b, "E6", 10)
	b.ReportMetric(lastRate(b, tables[0], 4), "validity-at-max-rate")
}

func BenchmarkE7_PrivateChainLength(b *testing.B) {
	tables := runExperiment(b, "E7", 15)
	b.ReportMetric(lastRate(b, tables[0], 2), "max-burst-at-max-n")
}

func BenchmarkE8_DagBA(b *testing.B) {
	tables := runExperiment(b, "E8", 10)
	b.ReportMetric(lastRate(b, tables[0], len(tables[0].Cols)-1), "dag-validity-hostile-corner")
}

func BenchmarkE9_MsgPassingSim(b *testing.B) {
	tables := runExperiment(b, "E9", 0)
	b.ReportMetric(lastRate(b, tables[0], 1), "append-msgs-at-max-n")
}

func BenchmarkE10_ChainVsDag(b *testing.B) {
	tables := runExperiment(b, "E10", 10)
	chainV := lastRate(b, tables[0], 3)
	dagV := lastRate(b, tables[0], 4)
	b.ReportMetric(dagV-chainV, "dag-minus-chain-validity")
}

func BenchmarkE11_TemporalAsynchrony(b *testing.B) {
	tables := runExperiment(b, "E11", 10)
	b.ReportMetric(lastRate(b, tables[0], 1), "dag-validity-max-blackout")
}

func BenchmarkE12_StalenessAblation(b *testing.B) {
	tables := runExperiment(b, "E12", 10)
	stale := lastRate(b, tables[0], 2)
	fresh := lastRate(b, tables[0], 3)
	b.ReportMetric(fresh-stale, "fresh-minus-stale-validity")
}

func BenchmarkE13_StickyBits(b *testing.B) {
	tables := runExperiment(b, "E13", 0)
	ok := 0
	for _, row := range tables[0].Rows {
		if last := row[len(row)-1]; row[0].Str == "sticky bit" && last.Kind == experiments.KindBool && last.Bool {
			ok++
		}
	}
	b.ReportMetric(float64(ok), "sticky-configs-solving-consensus")
}

func BenchmarkE14_Backbone(b *testing.B) {
	tables := runExperiment(b, "E14", 10)
	// Quality gap between the last dag row and the last chain-attack row.
	var chainQ, dagQ float64
	for _, row := range tables[0].Rows {
		q, ok := row[2].Value()
		if !ok {
			continue
		}
		if strings.HasPrefix(row[0].Str, "chain, tiebreak") {
			chainQ = q
		}
		if strings.HasPrefix(row[0].Str, "dag") {
			dagQ = q
		}
	}
	b.ReportMetric(dagQ-chainQ, "dag-minus-chain-quality")
}

func BenchmarkE15_MemoryVsMessages(b *testing.B) {
	tables := runExperiment(b, "E15", 8)
	// Ratio of message-passing relays to append-memory ops on the largest size.
	last := tables[0].Rows[len(tables[0].Rows)-1]
	amOps, _ := last[2].Value()
	mpMsgs, _ := last[3].Value()
	if amOps > 0 {
		b.ReportMetric(mpMsgs/amOps, "relays-per-memory-op")
	}
}

func BenchmarkE16_AsyncNodes(b *testing.B) {
	tables := runExperiment(b, "E16", 10)
	sync := cellValue(b, tables[0].Rows[0][1])
	async := lastRate(b, tables[0], 1)
	b.ReportMetric(sync-async, "chain-validity-lost-to-asynchrony")
}

func BenchmarkE17_AccessDiscipline(b *testing.B) {
	tables := runExperiment(b, "E17", 10)
	last := tables[0].Rows[len(tables[0].Rows)-1]
	poisson := cellValue(b, last[3])
	rr := cellValue(b, last[4])
	b.ReportMetric(rr-poisson, "dag-validity-gain-without-bursts")
}

func BenchmarkE18_DecisionLatency(b *testing.B) {
	tables := runExperiment(b, "E18", 8)
	last := tables[0].Rows[len(tables[0].Rows)-1]
	ideal := cellValue(b, last[1])
	ts := cellValue(b, last[2])
	if ideal > 0 {
		b.ReportMetric(ts/ideal, "timestamp-latency-vs-ideal")
	}
}

func BenchmarkE19_ConfirmationDepth(b *testing.B) {
	tables := runExperiment(b, "E19", 10)
	first := cellValue(b, tables[0].Rows[0][2])
	last := cellValue(b, tables[0].Rows[len(tables[0].Rows)-1][2])
	b.ReportMetric(last-first, "dag-validity-change-with-depth")
}

func BenchmarkE20_HashingPower(b *testing.B) {
	tables := runExperiment(b, "E20", 10)
	// Spread between configurations' dag validity should be small.
	lo, hi := 2.0, -1.0
	for _, row := range tables[0].Rows {
		v := cellValue(b, row[4])
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	b.ReportMetric(hi-lo, "dag-validity-spread-across-shapes")
}

func BenchmarkE21_GhostAdvantage(b *testing.B) {
	tables := runExperiment(b, "E21", 10)
	last := tables[0].Rows[len(tables[0].Rows)-1]
	ghost := cellValue(b, last[1])
	longest := cellValue(b, last[2])
	b.ReportMetric(ghost-longest, "ghost-minus-longest-validity")
}

func BenchmarkE22_TopologySeparation(b *testing.B) {
	tables := runExperiment(b, "E22", 8)
	last := tables[0].Rows[len(tables[0].Rows)-1]
	chain := cellValue(b, last[1])
	dag := cellValue(b, last[2])
	b.ReportMetric(dag-chain, "dag-minus-chain-validity-sparsest")
}

func BenchmarkE23_BoundedMemory(b *testing.B) {
	tables := runExperiment(b, "E23", 8)
	b.ReportMetric(cellValue(b, tables[0].Rows[0][3]), "horizon-over-live-hw")
}

func BenchmarkE24_AdversarySearch(b *testing.B) {
	tables := runExperiment(b, "E24", 8)
	// Margin of the searched chain adversary over the strongest preset
	// (≥ 0 by the E24 checks; 0 when the search lands exactly on one).
	rows := tables[0].Rows
	best := 0.0
	for _, row := range rows[:len(rows)-1] {
		if v := cellValue(b, row[2]); v > best {
			best = v
		}
	}
	b.ReportMetric(cellValue(b, rows[len(rows)-1][2])-best, "searched-minus-best-preset")
}

// --- substrate micro-benchmarks ---

func BenchmarkAppendMemoryAppend(b *testing.B) {
	// Restart the memory every 64k appends: experiments run many
	// bounded histories, not one unbounded one, and without the bound
	// the benchmark mostly times the GC marking a multi-hundred-MB
	// live heap whenever b.N grows past a few million.
	m := appendmem.New(8)
	w := m.Writer(0)
	parent := appendmem.None
	parents := []appendmem.MsgID{parent}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(1<<16-1) == 0 && i > 0 {
			m = appendmem.New(8)
			w = m.Writer(0)
			parent = appendmem.None
		}
		parents[0] = parent
		msg := w.MustAppend(1, 0, parents)
		parent = msg.ID
	}
}

func BenchmarkChainBuild1000(b *testing.B) {
	m := appendmem.New(8)
	rng := xrand.New(1, 1)
	var ids []appendmem.MsgID
	for i := 0; i < 1000; i++ {
		parent := appendmem.None
		if len(ids) > 0 {
			parent = ids[rng.Intn(len(ids))]
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, []appendmem.MsgID{parent})
		ids = append(ids, msg.ID)
	}
	view := m.Read()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := chain.Build(view)
		_ = tree.LongestTips()
	}
}

func BenchmarkDagBuildAndLinearize1000(b *testing.B) {
	m := appendmem.New(8)
	rng := xrand.New(2, 2)
	var ids []appendmem.MsgID
	for i := 0; i < 1000; i++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			for j := 0; j < 1+rng.Intn(2); j++ {
				parents = append(parents, ids[rng.Intn(len(ids))])
			}
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, parents)
		ids = append(ids, msg.ID)
	}
	view := m.Read()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dag.Build(view)
		_ = d.Linearize(d.GhostPivot())
	}
}

// The Dispatch pair times the scheduler itself, not the trials: each
// iteration fans 256 near-empty trial bodies out through the process-wide
// pool (chunk claiming, work stealing, seed-order merge) and back. ns/op
// and allocs/op here are the per-fan-out overhead an experiment pays on
// top of its real per-trial work.

func BenchmarkTrialsDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := runner.Trials(256, 1, 0, func(seed uint64) uint64 { return seed })
		if len(out) != 256 {
			b.Fatal("bad fan-out")
		}
	}
}

func BenchmarkTrialsReduceDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sum := runner.TrialsReduce(256, 1, 0, uint64(0),
			func(seed uint64) uint64 { return seed },
			func(a, v uint64) uint64 { return a + v })
		if sum == 0 {
			b.Fatal("bad fold")
		}
	}
}

// BenchmarkDistributedDispatch times the distributed sweep machinery end
// to end at its smallest useful scale: per iteration, two in-process
// loopback workers are brought up (pipes, handshake), a 32-trial sync
// sweep is chunked into leases, framed over the wire, executed, merged in
// chunk order and the session torn down. The delta against
// TrialsReduceDispatch is what -distribute costs over the in-process
// pool.
func BenchmarkDistributedDispatch(b *testing.B) {
	spec := scenario.Spec{Protocol: scenario.Sync, N: 4, T: 1, Trials: 32, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ws := []distrib.Transport{distrib.Loopback(), distrib.Loopback()}
		res, _, err := distrib.Run(spec, distrib.Config{Workers: ws, ChunkSize: 8})
		if err != nil || len(res.Points) != 1 {
			b.Fatalf("bad distributed run: %v", err)
		}
		for _, w := range ws {
			w.Close()
		}
	}
}

func BenchmarkProtocolRunTimestamp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agreement.MustRun(agreement.RandomizedConfig{
			N: 10, T: 3, Lambda: 0.5, K: 21, Seed: uint64(i),
		}, timestamp.Rule{}, &agreement.ValueFlip{Rule: timestamp.Rule{}})
	}
}

func BenchmarkProtocolRunChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agreement.MustRun(agreement.RandomizedConfig{
			N: 10, T: 3, Lambda: 0.5, K: 21, Seed: uint64(i),
		}, chainba.Rule{TB: chain.RandomTieBreaker{}}, &adversary.ChainAttack{P: adversary.TieBreak})
	}
}

func BenchmarkProtocolRunDag(b *testing.B) {
	for i := 0; i < b.N; i++ {
		agreement.MustRun(agreement.RandomizedConfig{
			N: 10, T: 3, Lambda: 0.5, K: 21, Seed: uint64(i),
		}, dagba.Rule{Pivot: dagba.Ghost}, &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost})
	}
}

func BenchmarkProtocolRunSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		syncba.MustRun(syncba.Config{N: 9, T: 4, Seed: uint64(i)}, &syncba.LoudFlip{})
	}
}

func BenchmarkTopologyWattsStrogatz(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := topology.WattsStrogatz(xrand.New(uint64(i), 7), 64, 2, 0.2, 0.1)
		if g.N() != 64 {
			b.Fatal("bad graph")
		}
	}
}

func BenchmarkTopologyBarabasiAlbert(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := topology.BarabasiAlbert(xrand.New(uint64(i), 7), 64, 2, 0.1)
		if g.N() != 64 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkVisibilityFlood_SmallWorld256 times the topology harness's
// view layer (access.Visibility) on the dag-gossip graph shape: 256 nodes,
// Watts–Strogatz k=2 β=0.2, 0.1 link latency, uniform delays. Each
// iteration is one trial's worth of floods on a pooled tracker — a fresh
// memory, the tracker rebound to it, 32 appends 0.08 apart (about the
// aggregate append rate of n=256 at λ=0.05) so floods overlap, drained to
// quiescence. allocs/op and B/op are the fresh memory's plus whatever the
// warm tracker fails to reuse, a pure function of the fixed schedule.
func BenchmarkVisibilityFlood_SmallWorld256(b *testing.B) {
	const n, appends, gap = 256, 32, 0.08
	g := topology.WattsStrogatz(xrand.New(42, 7), n, 2, 0.2, 0.1)
	dm := topology.DelayModel{Kind: topology.DelayUniform}
	s := sim.New()
	vis := &access.Visibility{}
	var mem *appendmem.Memory
	appendAt := make([]func(), appends)
	for i := range appendAt {
		author := appendmem.NodeID(i * 37 % n)
		appendAt[i] = func() {
			mem.Writer(author).MustAppend(1, 0, nil)
			vis.Sync()
		}
	}
	trial := func(seed uint64) {
		s.Reset()
		mem = appendmem.New(n)
		vis.Rebind(s, xrand.New(seed, 1), g, dm, mem)
		for i, fn := range appendAt {
			s.At(sim.Time(float64(i)*gap), fn)
		}
		s.Run()
		if vis.Deliveries() != appends*(n-1) {
			b.Fatalf("%d deliveries, want %d", vis.Deliveries(), appends*(n-1))
		}
	}
	for seed := uint64(0); seed < 8; seed++ {
		trial(seed) // grow the pooled tracker and the event heap
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trial(uint64(i % 8))
	}
}

// BenchmarkWindowedMemory1M drives a million-step horizon through a
// bounded memory with a trailing 4096-id retirement window — the
// acceptance bar for the bounded-memory layer. The reported metric is the
// horizon length over the peak live-message count (≥10× required; in
// practice >100×); B/op shows the slab pool recycling retired chunks
// instead of growing the heap with the horizon.
func BenchmarkWindowedMemory1M(b *testing.B) {
	const steps, window, stride = 1 << 20, 4096, 1024
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := appendmem.NewBounded(8, window/8)
		parent := appendmem.None
		parents := []appendmem.MsgID{parent}
		for j := 0; j < steps; j++ {
			parents[0] = parent
			parent = m.Writer(appendmem.NodeID(j&7)).MustAppend(1, 0, parents).ID
			if (j+1)%stride == 0 {
				if floor := m.Len() - window; floor > 0 {
					m.Retire(floor)
				}
			}
		}
		ratio = float64(steps) / float64(m.LiveHighWater())
	}
	b.ReportMetric(ratio, "horizon-over-live-hw")
}

// confirmSweepSpec is the shared spec of the checkpoint wall-clock pair:
// a confirmation-depth sweep whose per-point cost is dominated by the
// shared pre-decision prefix (k=81), the axis checkpointing converts from
// re-simulated to restored.
func confirmSweepSpec(checkpoint bool) scenario.Spec {
	return scenario.Spec{
		Protocol: scenario.Dag, N: 10, T: 3, Crashes: 1,
		Lambda: 1, K: 81, Attack: scenario.AttackFlip,
		Seed: 1, Trials: 6, Checkpoint: checkpoint,
		Metrics: []string{"ok", "decide-time"},
		Sweep: []scenario.Axis{{Name: "confirm", Values: []scenario.Value{
			{Num: 0}, {Num: 2}, {Num: 4}, {Num: 6}, {Num: 8}}}},
	}
}

func benchConfirmSweep(b *testing.B, checkpoint bool) {
	spec := confirmSweepSpec(checkpoint)
	for i := 0; i < b.N; i++ {
		res := scenario.MustRunSpec(spec, scenario.Options{})
		if len(res.Points) != 5 {
			b.Fatal("bad sweep")
		}
	}
}

// The pair's ns/op difference is the wall clock checkpoint prefix reuse
// saves on a confirm-axis sweep (the metrics themselves are identical —
// experiment E23b pins that).
func BenchmarkConfirmSweepScratch(b *testing.B)      { benchConfirmSweep(b, false) }
func BenchmarkConfirmSweepCheckpointed(b *testing.B) { benchConfirmSweep(b, true) }

// stepHistory builds a protocol-shaped history of the given size: honest
// blocks extend the current structure while a minority keeps forking, the
// block mix the agreement runs produce.
func stepHistory(size int, multiParent bool) *appendmem.Memory {
	m := appendmem.New(8)
	rng := xrand.New(9, 9)
	var ids []appendmem.MsgID
	for i := 0; i < size; i++ {
		var parents []appendmem.MsgID
		if len(ids) > 0 {
			if multiParent {
				for j := 0; j < 1+rng.Intn(2); j++ {
					parents = append(parents, ids[rng.Intn(len(ids))])
				}
			} else {
				parents = append(parents, ids[rng.Intn(len(ids))])
			}
		}
		msg := m.Writer(appendmem.NodeID(rng.Intn(8))).MustAppend(1, 0, parents)
		ids = append(ids, msg.ID)
	}
	return m
}

// The Step pairs measure the per-step cost of a consumer re-reading a
// growing memory (view sizes cycling 2000..2200): a from-scratch Build per
// read versus one Cached handle that extends. The Extend variants pay one
// rebuild per 200 steps when the cycle wraps (the fallback path) and
// amortized O(1) per new block otherwise.

func BenchmarkChainStepBuild2000(b *testing.B) {
	m := stepHistory(2200, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := chain.Build(m.ViewAt(2000 + i%201))
		_ = tree.LongestTips()
	}
}

func BenchmarkChainStepExtend2000(b *testing.B) {
	m := stepHistory(2200, false)
	c := chain.NewCached()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := c.At(m.ViewAt(2000 + i%201))
		_ = tree.LongestTips()
	}
}

func BenchmarkDagStepBuild2000(b *testing.B) {
	m := stepHistory(2200, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := dag.Build(m.ViewAt(2000 + i%201))
		_ = d.GhostPivot()
	}
}

func BenchmarkDagStepExtend2000(b *testing.B) {
	m := stepHistory(2200, true)
	c := dag.NewCached()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := c.At(m.ViewAt(2000 + i%201))
		_ = d.GhostPivot()
	}
}
