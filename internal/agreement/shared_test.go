package agreement_test

import (
	"fmt"
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

// TestSharedIndexMatchesPerNode runs every config twice, once through the
// rule's trial-shared index (PerRunState) and once through per-node
// instances, and requires byte-identical Results: every decision, time,
// count and message. The table crosses the tie-breaks and pivots with the
// harness features that change which views nodes append and decide on.
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
	knobs := []struct {
		name  string
		apply func(*agreement.RandomizedConfig)
	}{
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

func assertSamePrint(t *testing.T, label string, shared, perNode *agreement.Result) {
	t.Helper()
	if got, want := agreement.KnobPrint(shared), agreement.KnobPrint(perNode); got != want {
		t.Fatalf("%s: the shared index changed the run:\nper-node:\n%s\nshared:\n%s", label, want, got)
	}
}
