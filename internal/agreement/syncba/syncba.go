// Package syncba implements Algorithm 1 of the paper: deterministic
// Byzantine agreement in the append memory with synchronous nodes
// (Section 3). In each of t+1 rounds every node appends its input value
// together with a reference to the set L_{r-1} of round-(r−1) appends it
// read; after the last round a value is *accepted* if it is backed by a
// chain of t+1 distinct nodes — its author plus t round-by-round
// supporters — and each node decides on the majority of accepted values.
//
// The package also contains the machinery for the matching lower bound
// (Lemma 3.1): a Byzantine node can delay its round-r append into the
// crack between two correct nodes' round-r reads, so that only a subset of
// the nodes sees it that round. The DelayedChain adversary uses exactly
// this power to keep the system bivalent for t rounds; running the
// protocol with fewer than t+1 rounds therefore breaks agreement, and with
// t+1 rounds it does not (Theorem 3.2, for t < n/2).
package syncba

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Config configures one synchronous run.
type Config struct {
	N, T   int
	Rounds int     // 0 means T+1 (the protocol's correct round count)
	Delta  float64 // synchrony bound; 0 means 1.0
	Seed   uint64
	// Inputs are the per-node inputs (±1); nil means all correct hold +1.
	Inputs node.Inputs
	// Crashes marks this many correct nodes crash-faulty; each stops after
	// a uniformly random round.
	Crashes int
	// Trace, when non-nil, records round starts, appends, reads and
	// decisions (see internal/trace).
	Trace *trace.Recorder
}

func (c *Config) fill() error {
	if c.Delta == 0 {
		c.Delta = 1
	}
	if c.N <= 0 || c.N > 64 || c.T < 0 || c.T >= c.N {
		return fmt.Errorf("syncba: invalid n=%d t=%d (need 0 < n <= 64, t < n)", c.N, c.T)
	}
	if c.Rounds == 0 {
		c.Rounds = c.T + 1
	}
	if c.Rounds < 1 {
		return fmt.Errorf("syncba: invalid rounds=%d", c.Rounds)
	}
	if c.Inputs == nil {
		c.Inputs = node.AllSame(c.N, +1)
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("syncba: %d inputs for %d nodes", len(c.Inputs), c.N)
	}
	return nil
}

// Env is the environment handed to synchronous adversaries: the memory
// (fresh reads at any instant), the round clock (including every node's
// exact read instants — the paper's adversary picks the subset of nodes
// that will see its append, which requires knowing the read schedule), the
// roster and all inputs.
type Env struct {
	Sim    *sim.Sim
	Mem    *appendmem.Memory
	Clock  *access.RoundClock
	Roster node.Roster
	Cfg    Config
	Rng    *xrand.PCG
}

// Writer returns the append capability of a Byzantine node; it panics for
// honest ids.
func (e *Env) Writer(id appendmem.NodeID) *appendmem.Writer {
	if !e.Roster.IsByzantine(id) {
		panic("syncba: adversary requested an honest writer")
	}
	return e.Mem.Writer(id)
}

// CorrectReadTimes returns the sorted round-r read instants of the correct
// nodes — the "cracks" a delayed append can target.
func (e *Env) CorrectReadTimes(r int) []sim.Time {
	var ts []sim.Time
	for _, id := range e.Roster.Correct() {
		ts = append(ts, e.Clock.ReadTime(id, r))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// Adversary drives the Byzantine nodes of a synchronous run. Round is
// invoked at the start of every round; the adversary schedules its appends
// on env.Sim at whatever instants it likes.
type Adversary interface {
	Init(env *Env)
	Round(r int)
}

// Silent is the adversary whose Byzantine nodes never append.
type Silent struct{}

// Init implements Adversary.
func (Silent) Init(*Env) {}

// Round implements Adversary.
func (Silent) Round(int) {}

// Result collects the outcome of one synchronous run.
type Result struct {
	Roster   node.Roster
	Inputs   node.Inputs
	Outcome  *node.Outcome
	Verdict  node.Verdict
	Rounds   int
	Duration sim.Time
	// AcceptedSum[i] is the sum of the values node i accepted (correct
	// nodes only); exposes *why* decisions differ when agreement breaks.
	AcceptedSum []int64
	FinalView   appendmem.View
}

// simPool recycles simulators across runs, so a run starts with the event
// queue's storage already grown; Run resets one before returning it.
var simPool = runner.NewPool(sim.New)

// Run executes Algorithm 1 (with a possibly truncated round count) against
// the given adversary and returns the result.
func Run(cfg Config, adv Adversary) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	root := xrand.New(cfg.Seed, 0x5C7BA)
	s := simPool.Get()
	mem := appendmem.New(cfg.N)
	clock := access.NewRoundClock(root.Split(), cfg.N, cfg.Delta)
	roster := node.NewRoster(cfg.N, cfg.T).WithCrashes(cfg.Crashes)
	outcome := node.NewOutcome(cfg.N)
	result := &Result{
		Roster:      roster,
		Inputs:      cfg.Inputs,
		Outcome:     outcome,
		Rounds:      cfg.Rounds,
		AcceptedSum: make([]int64, cfg.N),
	}

	crashRound := make([]int, cfg.N)
	for i := range crashRound {
		crashRound[i] = cfg.Rounds + 1
		if roster.Role(appendmem.NodeID(i)) == node.Crash {
			crashRound[i] = 1 + root.Intn(cfg.Rounds)
		}
	}

	env := &Env{Sim: s, Mem: mem, Clock: clock, Roster: roster, Cfg: cfg, Rng: root.Split()}
	adv.Init(env)

	// lastL[i] holds node i's L_{r-1}: the round-(r−1) appends it saw at
	// its round-(r−1) read (L_0 = ∅).
	lastL := make([][]appendmem.MsgID, cfg.N)

	for r := 1; r <= cfg.Rounds; r++ {
		r := r
		s.At(clock.RoundStart(r), func() {
			cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.RoundStart, Node: trace.System,
				Note: fmt.Sprintf("round %d", r)})
			adv.Round(r)
		})
		for i := 0; i < cfg.N; i++ {
			id := appendmem.NodeID(i)
			if roster.IsByzantine(id) {
				continue
			}
			if r >= crashRound[i] {
				continue
			}
			// Line 2: M.append(val(v), L_{r-1}).
			s.At(clock.AppendTime(id, r), func() {
				msg := mem.Writer(id).MustAppend(cfg.Inputs[id], r, lastL[id])
				cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Append, Node: id,
					Msg: msg.ID, Val: msg.Value})
			})
			// Lines 3-4: wait Δ, read; L_r := round-r appends seen.
			s.At(clock.ReadTime(id, r), func() {
				view := mem.Read()
				cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Read, Node: id})
				var lr []appendmem.MsgID
				for _, msg := range view.ByRound(r) {
					lr = append(lr, msg.ID)
				}
				lastL[id] = lr
				if r == cfg.Rounds {
					// Lines 6-7: accept and decide on the majority.
					accepted := AcceptedValues(view, cfg.Rounds)
					var sum int64
					for _, v := range accepted {
						sum += v
					}
					result.AcceptedSum[id] = sum
					outcome.Decide(id, node.Sign(sum))
					cfg.Trace.Record(trace.Event{At: s.Now(), Kind: trace.Decide, Node: id, Val: node.Sign(sum)})
				}
			})
		}
	}

	s.Run()
	result.FinalView = mem.Read()
	result.Duration = s.Now()
	s.Reset()
	simPool.Put(s)
	result.Verdict = node.Evaluate(roster, cfg.Inputs, outcome)
	return result, nil
}

// MustRun is Run but panics on configuration errors.
func MustRun(cfg Config, adv Adversary) *Result {
	r, err := Run(cfg, adv)
	if err != nil {
		panic(err)
	}
	return r
}

// AcceptedValues implements Algorithm 1 Line 6 on a view: a round-1 value
// val(v) is accepted when the view contains a chain of `rounds` distinct
// nodes — the author plus one supporter per subsequent round, each
// referencing the previous link. Every accepted round-1 message
// contributes its value once.
func AcceptedValues(view appendmem.View, rounds int) []int64 {
	msgs := view.Messages()
	// supports[id] lists the messages of round r+1 referencing message id
	// of round r.
	supports := make(map[appendmem.MsgID][]*appendmem.Message)
	for _, msg := range msgs {
		for _, p := range msg.Parents {
			if p == appendmem.None {
				continue
			}
			parent := view.Message(p)
			if parent != nil && msg.Round == parent.Round+1 {
				supports[p] = append(supports[p], msg)
			}
		}
	}

	type key struct {
		id   appendmem.MsgID
		used uint64
	}
	memo := make(map[key]bool)
	// chainFrom reports whether a support chain of the given remaining
	// length exists starting at msg, avoiding authors in used.
	var chainFrom func(msg *appendmem.Message, used uint64, remaining int) bool
	chainFrom = func(msg *appendmem.Message, used uint64, remaining int) bool {
		if remaining == 0 {
			return true
		}
		k := key{msg.ID, used}
		if v, ok := memo[k]; ok {
			return v
		}
		ok := false
		for _, next := range supports[msg.ID] {
			bit := uint64(1) << uint(next.Author)
			if used&bit != 0 {
				continue
			}
			if chainFrom(next, used|bit, remaining-1) {
				ok = true
				break
			}
		}
		memo[k] = ok
		return ok
	}

	var accepted []int64
	for _, msg := range msgs {
		if msg.Round != 1 {
			continue
		}
		if chainFrom(msg, uint64(1)<<uint(msg.Author), rounds-1) {
			accepted = append(accepted, msg.Value)
		}
	}
	return accepted
}
