package agreement_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/agreement"
	"repro/internal/agreement/chainba"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// nodeOnly exposes a rule's PerNodeState and nothing else, so the harness
// drives every correct node through its own instance: the reference path
// the trial-shared index must reproduce.
type nodeOnly struct{ rule agreement.HonestRule }

func (r nodeOnly) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	r.rule.Append(view, w, input, rng)
}

func (r nodeOnly) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	return r.rule.Decide(view, k, rng)
}

func (r nodeOnly) NewNodeRule() agreement.HonestRule {
	return r.rule.(agreement.PerNodeState).NewNodeRule()
}

// retireLog wraps a windowed adversary and records every watermark the
// harness retires the memory to: each retirement compacts the adversary
// at that watermark before it retires the memory.
type retireLog struct {
	agreement.Adversary
	marks *[]int
}

func (a retireLog) ViewFloor() int {
	return a.Adversary.(agreement.WindowedAdversary).ViewFloor()
}

func (a retireLog) CompactTo(w int) {
	*a.marks = append(*a.marks, w)
	a.Adversary.(agreement.WindowedAdversary).CompactTo(w)
}

// knob is one harness feature a differential run turns on.
type knob struct {
	name  string
	apply func(*agreement.RandomizedConfig)
}

// TestSharedIndexMatchesPerNode runs every config twice, once through the
// rule's trial-shared index (PerRunState) and once through per-node
// instances, and requires byte-identical Results: every decision, time,
// count and message. The table crosses the tie-breaks and pivots with the
// harness features that change which views nodes append and decide on.
//
// The chain rules also run windowed (WindowedRunState), against a silent
// and a value-flipping adversary, with and without a confirmation depth,
// at windows of 64 and of exactly the decision lookback k+confirm, and at
// 8 — fewer messages than one Δ brings at this rate, so the nodes query
// prefixes older than the window and an index compacted past their floors
// fails. There the shared index must also retire the memory at the very
// watermarks the per-node indexes do: the print carries the peak live
// count and every live message, and the retirement sequence must match.
func TestSharedIndexMatchesPerNode(t *testing.T) {
	const n, byz = 10, 3
	isByz := func(id appendmem.NodeID) bool { return int(id) >= n-byz }
	rules := []struct {
		name string
		rule func(confirm int) agreement.HonestRule
		adv  func(rule agreement.HonestRule) agreement.Adversary
	}{
		{"chain-first", func(c int) agreement.HonestRule { return chainba.Rule{TB: chain.FirstTieBreaker{}, Confirm: c} },
			func(agreement.HonestRule) agreement.Adversary { return &adversary.ChainAttack{P: adversary.Fork} }},
		{"chain-random", func(c int) agreement.HonestRule { return chainba.Rule{TB: chain.RandomTieBreaker{}, Confirm: c} },
			func(agreement.HonestRule) agreement.Adversary { return &adversary.ChainAttack{P: adversary.TieBreak} }},
		{"chain-adversarial", func(c int) agreement.HonestRule {
			return chainba.Rule{TB: chain.AdversarialTieBreaker{IsByzantine: isByz}, Confirm: c}
		}, func(rule agreement.HonestRule) agreement.Adversary { return &agreement.ValueFlip{Rule: rule} }},
		{"dag-ghost", func(c int) agreement.HonestRule { return dagba.Rule{Pivot: dagba.Ghost, Confirm: c} },
			func(agreement.HonestRule) agreement.Adversary {
				return &adversary.DagAttack{P: adversary.PrivateChain, Pivot: dagba.Ghost}
			}},
		{"dag-longest", func(c int) agreement.HonestRule { return dagba.Rule{Pivot: dagba.Longest, Confirm: c} },
			func(rule agreement.HonestRule) agreement.Adversary { return &agreement.ValueFlip{Rule: rule} }},
	}
	knobs := []knob{
		// The first three are the knobs a window allows.
		{"default", func(*agreement.RandomizedConfig) {}},
		{"crashes", func(c *agreement.RandomizedConfig) { c.Crashes = 2 }},
		{"fresh-reads", func(c *agreement.RandomizedConfig) { c.FreshHonestReads = true }},
		{"async", func(c *agreement.RandomizedConfig) { c.AsyncDelayMax = 2 }},
		{"stall", func(c *agreement.RandomizedConfig) { c.StallAtSize, c.StallFor = 8, 3 }},
		{"small-world", func(c *agreement.RandomizedConfig) {
			c.Topology = topology.WattsStrogatz(xrand.New(c.Seed, 7), n, 2, 0.3, 0.3)
			c.TopologyDelay = topology.DelayModel{Kind: topology.DelayUniform}
		}},
	}
	for _, rc := range rules {
		for _, kc := range knobs {
			t.Run(rc.name+"/"+kc.name, func(t *testing.T) {
				for seed := uint64(1); seed <= 4; seed++ {
					cfg := agreement.RandomizedConfig{N: n, T: byz, Lambda: 0.8, K: 15, Seed: seed}
					kc.apply(&cfg)
					rule := rc.rule(1)
					shared := agreement.MustRun(cfg, rule, rc.adv(rule))
					perNode := agreement.MustRun(cfg, nodeOnly{rule}, rc.adv(rule))
					assertSamePrint(t, fmt.Sprintf("seed %d", seed), shared, perNode)
				}
			})
		}
		if strings.HasPrefix(rc.name, "chain") {
			t.Run(rc.name+"/windowed", func(t *testing.T) { windowedSharedMatchesPerNode(t, rc.rule, knobs[:3]) })
		}
		t.Run(rc.name+"/checkpoint", func(t *testing.T) {
			for seed := uint64(1); seed <= 4; seed++ {
				cfg := agreement.RandomizedConfig{N: n, T: byz, Lambda: 0.8, K: 15, Seed: seed, Crashes: 1}
				var cps [2]*agreement.Checkpoint
				var captured [2]*agreement.Result
				for i, rule := range []agreement.HonestRule{rc.rule(0), nodeOnly{rc.rule(0)}} {
					capCfg := cfg
					capCfg.CheckpointSink = func(c *agreement.Checkpoint) { cps[i] = c }
					captured[i] = agreement.MustRun(capCfg, rule, rc.adv(rc.rule(0)))
				}
				if cps[0] == nil || cps[1] == nil {
					t.Fatalf("seed %d: no decision, nothing captured", seed)
				}
				assertSamePrint(t, fmt.Sprintf("seed %d capture", seed), captured[0], captured[1])
				deep := rc.rule(2)
				var resumed [2]*agreement.Result
				for i, rule := range []agreement.HonestRule{deep, nodeOnly{deep}} {
					resCfg := cfg
					resCfg.ResumeFrom = cps[i]
					resumed[i] = agreement.MustRun(resCfg, rule, rc.adv(deep))
				}
				assertSamePrint(t, fmt.Sprintf("seed %d resumed", seed), resumed[0], resumed[1])
				assertSamePrint(t, fmt.Sprintf("seed %d from scratch", seed), agreement.MustRun(cfg, deep, rc.adv(deep)), resumed[1])
			}
		})
	}
}

// windowedSharedMatchesPerNode runs one chain rule windowed through its
// shared index and through per-node instances (see
// TestSharedIndexMatchesPerNode).
func windowedSharedMatchesPerNode(t *testing.T, rule func(confirm int) agreement.HonestRule, knobs []knob) {
	const n, byz, k = 10, 3, 81
	advs := []struct {
		name string
		adv  func(agreement.HonestRule) agreement.Adversary
	}{
		{"silent", func(agreement.HonestRule) agreement.Adversary { return agreement.Silent{} }},
		{"flip", func(r agreement.HonestRule) agreement.Adversary { return &agreement.ValueFlip{Rule: r} }},
	}
	for _, ac := range advs {
		for _, confirm := range []int{0, 3} {
			for _, kc := range knobs {
				for _, window := range []int{8, 64, k + confirm} {
					retired := 0
					for seed := uint64(1); seed <= 3; seed++ {
						label := fmt.Sprintf("%s confirm=%d %s window=%d seed %d", ac.name, confirm, kc.name, window, seed)
						cfg := agreement.RandomizedConfig{N: n, T: byz, Lambda: 1, K: k, Seed: seed, Window: window}
						kc.apply(&cfg)
						var marks [2][]int
						var res [2]*agreement.Result
						for i, r := range []agreement.HonestRule{rule(confirm), nodeOnly{rule(confirm)}} {
							res[i] = agreement.MustRun(cfg, r, retireLog{ac.adv(rule(confirm)), &marks[i]})
						}
						assertSamePrint(t, label, res[0], res[1])
						if !slices.Equal(marks[0], marks[1]) {
							t.Fatalf("%s: the shared index retired at %v, per-node indexes at %v", label, marks[0], marks[1])
						}
						retired += len(marks[1])
					}
					if retired == 0 {
						t.Fatalf("%s confirm=%d %s window=%d: no seed retired anything", ac.name, confirm, kc.name, window)
					}
				}
			}
		}
	}
}

func assertSamePrint(t *testing.T, label string, shared, perNode *agreement.Result) {
	t.Helper()
	if got, want := agreement.KnobPrint(shared), agreement.KnobPrint(perNode); got != want {
		t.Fatalf("%s: the shared index changed the run:\nper-node:\n%s\nshared:\n%s", label, want, got)
	}
}
