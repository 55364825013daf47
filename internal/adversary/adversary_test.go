package adversary

import (
	"fmt"
	"testing"

	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/agreement/dagba"
	"repro/internal/appendmem"
	"repro/internal/chain"
	"repro/internal/node"
	"repro/internal/xrand"
)

// testEnv builds a bare environment: n nodes, last t Byzantine, decision
// threshold k.
func testEnv(n, t, k int) *agreement.Env {
	env := &agreement.Env{
		Mem:    appendmem.New(n),
		Roster: node.NewRoster(n, t),
		Rng:    xrand.New(1, 1),
	}
	env.Cfg.K = k
	return env
}

// honestChain appends a chain of count honest blocks, authored by nodes 0
// and 1 in turn, and returns their ids, root first. A DAG root names no
// parent; a chain root names appendmem.None.
func honestChain(env *agreement.Env, count int, dagShape bool) []appendmem.MsgID {
	var ids []appendmem.MsgID
	parent := appendmem.None
	for i := 0; i < count; i++ {
		var parents []appendmem.MsgID
		if !dagShape || parent != appendmem.None {
			parents = []appendmem.MsgID{parent}
		}
		ids = append(ids, env.Mem.Writer(appendmem.NodeID(i%2)).MustAppend(+1, 0, parents).ID)
		parent = ids[len(ids)-1]
	}
	return ids
}

func chainPreset(p Params) func() agreement.Adversary {
	return func() agreement.Adversary { return &ChainAttack{P: p} }
}

func dagPreset(p Params) func() agreement.Adversary {
	return func() agreement.Adversary { return &DagAttack{P: p, Pivot: dagba.Ghost} }
}

// presets lists every named attack with its template.
var presets = []struct {
	name string
	new  func() agreement.Adversary
	dag  bool
}{
	{"fork", chainPreset(Fork), false},
	{"tiebreak", chainPreset(TieBreak), false},
	{"equivocate", chainPreset(Equivocate), false},
	{"private-chain", dagPreset(PrivateChain), true},
	{"last-minute", dagPreset(LastMinute), true},
	{"private-fork", dagPreset(PrivateFork), true},
}

// behaviourCase runs one preset on a small hand-built memory: an honest
// chain is appended first, then the adversary (Byzantine node n−1)
// receives grants, and check inspects the blocks it appended.
type behaviourCase struct {
	name     string
	adv      func() agreement.Adversary
	n, t, k  int
	honest   int  // honest chain length appended first
	dagShape bool // honest blocks are DAG blocks (no genesis parent)
	grants   int
	check    func(t *testing.T, env *agreement.Env, honest, appended []appendmem.MsgID)
}

// TestPresetBehaviours checks the defining move of each preset.
func TestPresetBehaviours(t *testing.T) {
	cases := []behaviourCase{
		{name: "fork forks the correct tip", adv: chainPreset(Fork), n: 4, t: 1, honest: 2, grants: 1,
			check: func(t *testing.T, env *agreement.Env, honest, got []appendmem.MsgID) {
				// A sibling of the correct tip: same parent, same depth.
				if p := env.Mem.Message(got[0]).Parents[0]; p != honest[0] {
					t.Fatalf("forked parent = %d, want %d", p, honest[0])
				}
				if tips := chain.Build(env.Mem.Read()).LongestTips(); len(tips) != 2 {
					t.Fatalf("fork did not create a tie: tips = %v", tips)
				}
			}},
		{name: "tiebreak extends the fresh tip", adv: chainPreset(TieBreak), n: 4, t: 1, honest: 2, grants: 1,
			check: func(t *testing.T, env *agreement.Env, honest, got []appendmem.MsgID) {
				m := env.Mem.Message(got[0])
				if m.Parents[0] != honest[1] || m.Value != -1 {
					t.Fatalf("block = %+v, want a -1 child of fresh tip %d", m, honest[1])
				}
			}},
		{name: "equivocate alternates targets", adv: chainPreset(Equivocate), n: 4, t: 1, honest: 2, grants: 2,
			check: func(t *testing.T, env *agreement.Env, _, got []appendmem.MsgID) {
				if env.Mem.Message(got[0]).Parents[0] == env.Mem.Message(got[1]).Parents[0] {
					t.Fatal("equivocator did not alternate targets")
				}
			}},
		{name: "private-chain appends single-parent blocks in a chain", adv: dagPreset(PrivateChain),
			n: 4, t: 1, honest: 2, dagShape: true, grants: 2,
			check: func(t *testing.T, env *agreement.Env, honest, got []appendmem.MsgID) {
				first, second := env.Mem.Message(got[0]), env.Mem.Message(got[1])
				if len(first.Parents) != 1 || first.Parents[0] != honest[1] {
					t.Fatalf("first private block parents = %v, want [%d]", first.Parents, honest[1])
				}
				if len(second.Parents) != 1 || second.Parents[0] != first.ID {
					t.Fatalf("second private block parents = %v, want [%d]", second.Parents, first.ID)
				}
			}},
		{name: "last-minute stays silent early", adv: dagPreset(LastMinute),
			n: 4, t: 1, k: 41, honest: 1, dagShape: true, grants: 3,
			check: func(t *testing.T, _ *agreement.Env, _, got []appendmem.MsgID) {
				if len(got) != 0 {
					t.Fatalf("appended %d blocks before the trigger", len(got))
				}
			}},
		{name: "last-minute bursts within 6 of k", adv: dagPreset(LastMinute),
			n: 4, t: 1, k: 10, honest: 4, dagShape: true, grants: 2,
			check: func(t *testing.T, env *agreement.Env, honest, got []appendmem.MsgID) {
				if len(got) != 2 {
					t.Fatalf("appended %d blocks near k, want 2", len(got))
				}
				m := env.Mem.Message(got[0])
				if len(m.Parents) != 1 || m.Parents[0] != honest[3] || m.Value != -1 {
					t.Fatalf("burst block = %+v, want a -1 child of pivot tip %d", m, honest[3])
				}
			}},
		{name: "private-fork never references an honest block", adv: dagPreset(PrivateFork),
			n: 4, t: 1, honest: 1, dagShape: true, grants: 2,
			check: func(t *testing.T, env *agreement.Env, _, got []appendmem.MsgID) {
				first, second := env.Mem.Message(got[0]), env.Mem.Message(got[1])
				if len(first.Parents) != 0 {
					t.Fatalf("fork root has parents: %v", first.Parents)
				}
				if len(second.Parents) != 1 || second.Parents[0] != first.ID {
					t.Fatalf("fork not chained: %+v", second)
				}
			}},
		{name: "fork extends its own tip when every longest tip is Byzantine", adv: chainPreset(Fork),
			n: 4, t: 2, grants: 2,
			check: func(t *testing.T, env *agreement.Env, _, got []appendmem.MsgID) {
				if p := env.Mem.Message(got[1]).Parents[0]; p != got[0] {
					t.Fatalf("parent = %d, want extension of %d", p, got[0])
				}
			}},
	}
	// On an empty memory every preset that is active appends one -1 root:
	// the chain presets name the genesis, the DAG presets name no parent.
	// Last-minute is active on an empty memory only when k ≤ 6.
	for _, p := range presets {
		p := p
		cases = append(cases, behaviourCase{name: p.name + " on an empty memory", adv: p.new, n: 3, t: 1, grants: 1,
			check: func(t *testing.T, env *agreement.Env, _, got []appendmem.MsgID) {
				if len(got) != 1 {
					t.Fatalf("appended %d blocks, want 1", len(got))
				}
				m := env.Mem.Message(got[0])
				want := "[-1]"
				if p.dag {
					want = "[]"
				}
				if m.Value != -1 || fmt.Sprint(m.Parents) != want {
					t.Fatalf("block = %+v, want value -1 and parents %s", m, want)
				}
			}})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			env := testEnv(c.n, c.t, c.k)
			honest := honestChain(env, c.honest, c.dagShape)
			a := c.adv()
			a.Init(env)
			for i := 0; i < c.grants; i++ {
				a.OnGrant(access.Grant{Node: appendmem.NodeID(c.n - 1)})
			}
			var appended []appendmem.MsgID
			for id := len(honest); id < env.Mem.Len(); id++ {
				appended = append(appended, appendmem.MsgID(id))
			}
			c.check(t, env, honest, appended)
		})
	}
}

// TestAdversariesOnlyUseOwnWriters grants every preset an honest node's
// token: the append must be refused by Env.Writer, leaving the memory
// untouched.
func TestAdversariesOnlyUseOwnWriters(t *testing.T) {
	for _, p := range presets {
		t.Run(p.name, func(t *testing.T) {
			env := testEnv(4, 1, 0)
			a := p.new()
			a.Init(env)
			defer func() {
				if r := recover(); r != "agreement: adversary requested an honest writer" {
					t.Fatalf("recovered %v, want the honest-writer panic", r)
				}
				if env.Mem.Len() != 0 {
					t.Fatalf("memory holds %d blocks after a refused append", env.Mem.Len())
				}
			}()
			a.OnGrant(access.Grant{Node: 0}) // node 0 is honest
		})
	}
}
