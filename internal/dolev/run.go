package dolev

import (
	"fmt"

	"repro/internal/appendmem"
	"repro/internal/msgnet"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// honestNode is a correct participant running n parallel broadcast
// instances.
type honestNode struct {
	id     appendmem.NodeID
	nw     *msgnet.Network
	signer *msgnet.Signer
	// extracted[s] is the set of values extracted for sender s.
	extracted map[appendmem.NodeID]map[int64]bool
	// inbox buffers messages received during the current round; they are
	// processed at the next round boundary (round-r messages need >= r
	// signatures).
	inbox []message
}

func newHonestNode(nw *msgnet.Network, id appendmem.NodeID) *honestNode {
	h := &honestNode{
		id:        id,
		nw:        nw,
		signer:    nw.Signer(id),
		extracted: make(map[appendmem.NodeID]map[int64]bool),
	}
	nw.Register(id, func(env msgnet.Envelope) {
		if env.Kind != kindRelay {
			return
		}
		if m, err := unmarshalMessage(env.Body); err == nil {
			h.inbox = append(h.inbox, m)
		}
	})
	return h
}

// extract records a value for an instance; returns true when new.
func (h *honestNode) extract(m message) bool {
	set := h.extracted[m.Instance]
	if set == nil {
		set = make(map[int64]bool)
		h.extracted[m.Instance] = set
	}
	if set[m.Value] {
		return false
	}
	set[m.Value] = true
	return true
}

// processInbox handles the messages received during round r−1 at the start
// of round r: valid chains of length ≥ r−1 whose values are new are
// extracted and (if r ≤ R) relayed with an added signature.
func (h *honestNode) processInbox(justEndedRound, totalRounds int) {
	inbox := h.inbox
	h.inbox = nil
	for _, m := range inbox {
		if len(m.Chain) < justEndedRound {
			continue // too few signatures for this round
		}
		if len(h.extracted[m.Instance]) >= 2 {
			continue // already knows the sender equivocated; ⊥ is locked in
		}
		if !validChain(h.nw, m) {
			continue
		}
		if !h.extract(m) {
			continue
		}
		if justEndedRound < totalRounds {
			relay := extend(h.signer, m)
			for i := 0; i < h.nw.N(); i++ {
				h.nw.Send(h.id, appendmem.NodeID(i), kindRelay, relay.marshal())
			}
		}
	}
}

// deliver returns the broadcast output for one instance: the unique
// extracted value, or Bottom.
func (h *honestNode) deliver(instance appendmem.NodeID) int64 {
	set := h.extracted[instance]
	if len(set) != 1 {
		return Bottom
	}
	for v := range set {
		return v
	}
	return Bottom
}

// simPool recycles simulators across runs, so a run starts with the event
// queue's storage already grown; Run resets one before returning it.
var simPool = runner.NewPool(sim.New)

// Run executes Byzantine agreement via n parallel Dolev–Strong broadcasts
// and a majority decision.
func Run(cfg Config) (*Result, error) {
	if cfg.N <= 0 || cfg.T < 0 || cfg.T >= cfg.N {
		return nil, fmt.Errorf("dolev: invalid n=%d t=%d", cfg.N, cfg.T)
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = cfg.T + 1
	}
	if cfg.Rounds < 1 {
		return nil, fmt.Errorf("dolev: invalid rounds=%d", cfg.Rounds)
	}
	if cfg.Inputs == nil {
		cfg.Inputs = node.AllSame(cfg.N, +1)
	}
	if len(cfg.Inputs) != cfg.N {
		return nil, fmt.Errorf("dolev: %d inputs for %d nodes", len(cfg.Inputs), cfg.N)
	}
	if cfg.Adversary == nil {
		cfg.Adversary = SilentAdversary{}
	}

	const roundLen = sim.Time(1.0)
	s := simPool.Get()
	rng := xrand.New(cfg.Seed, 0xD01E)
	// Delivery within 0.9 of a round so every round-r send arrives before
	// the round-(r+1) boundary.
	nw := msgnet.New(s, rng, cfg.N, 0.9)
	roster := node.NewRoster(cfg.N, cfg.T)

	// honest is indexed by node id (nil for a Byzantine node) and walked in
	// id order, so the network's per-send delay draws follow a fixed send
	// order and a seed fixes the whole delivery schedule.
	honest := make([]*honestNode, cfg.N)
	byzSigners := make(map[appendmem.NodeID]*msgnet.Signer)
	for i := 0; i < cfg.N; i++ {
		id := appendmem.NodeID(i)
		if roster.IsByzantine(id) {
			byzSigners[id] = nw.Signer(id)
			nw.Register(id, func(msgnet.Envelope) {}) // adversary-driven
		} else {
			honest[id] = newHonestNode(nw, id)
		}
	}

	env := &Env{Sim: s, NW: nw, Roster: roster, Cfg: cfg, RoundLen: roundLen, signers: byzSigners}
	cfg.Adversary.Init(env)

	// Round 1: every correct node starts its own instance.
	s.At(0, func() {
		cfg.Adversary.Round(1)
		for _, h := range honest {
			if h == nil {
				continue
			}
			m := extend(h.signer, message{Instance: h.id, Value: cfg.Inputs[h.id]})
			h.extract(m) // the sender extracts its own value
			for i := 0; i < cfg.N; i++ {
				nw.Send(h.id, appendmem.NodeID(i), kindRelay, m.marshal())
			}
		}
	})
	// Round boundaries 2..R+1: process the previous round's inbox.
	for r := 2; r <= cfg.Rounds+1; r++ {
		r := r
		s.At(roundLen*sim.Time(r-1), func() {
			if r <= cfg.Rounds {
				cfg.Adversary.Round(r)
			}
			for _, h := range honest {
				if h != nil {
					h.processInbox(r-1, cfg.Rounds)
				}
			}
		})
	}
	s.Run()
	s.Reset()
	simPool.Put(s)

	outcome := node.NewOutcome(cfg.N)
	res := &Result{
		Roster:     roster,
		Inputs:     cfg.Inputs,
		Outcome:    outcome,
		Delivered:  make([][]int64, cfg.N),
		Consistent: true,
		Stats:      nw.Stats(),
	}
	var reference []int64
	for i, h := range honest {
		if h == nil {
			continue
		}
		id := appendmem.NodeID(i)
		vec := make([]int64, cfg.N)
		var sum int64
		for sdr := 0; sdr < cfg.N; sdr++ {
			vec[sdr] = h.deliver(appendmem.NodeID(sdr))
			sum += vec[sdr]
		}
		res.Delivered[i] = vec
		outcome.Decide(id, node.Sign(sum))
		if reference == nil {
			reference = vec
		} else {
			for j := range vec {
				if vec[j] != reference[j] {
					res.Consistent = false
				}
			}
		}
	}
	res.Verdict = node.Evaluate(roster, cfg.Inputs, outcome)
	return res, nil
}

// MustRun is Run but panics on configuration errors.
func MustRun(cfg Config) *Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// StagedRelease is the lower-bound adversary: the first Byzantine node
// equivocates a second value −1 whose signature chain is extended by one
// further Byzantine node per round and finally handed to exactly one
// correct node in the last round. With Rounds ≤ t the chain consists of
// Byzantine signers only and the lone receiver extracts a value nobody
// else ever sees — consistency (and with balanced inputs, agreement)
// breaks. With Rounds = t+1 the chain would need t+1 distinct signers;
// the Byzantine nodes run out, so the attack is impossible.
type StagedRelease struct {
	// Value is the smuggled value; 0 means -1.
	Value int64
	env   *Env
	cur   message
	alive bool
}

// Init implements Adversary.
func (a *StagedRelease) Init(env *Env) {
	a.env = env
	if a.Value == 0 {
		a.Value = -1
	}
}

// Round implements Adversary.
func (a *StagedRelease) Round(r int) {
	byz := a.env.Roster.Byzantines()
	if len(byz) == 0 {
		return
	}
	R := a.env.Cfg.Rounds
	switch {
	case r == 1:
		// The first Byzantine node starts a hidden instance with the
		// smuggled value. (It sends its "public" value to nobody — staying
		// silent publicly is also Byzantine behaviour.)
		a.cur = a.env.NewMessage(byz[0], a.Value)
		a.alive = true
	case r <= R && a.alive:
		// Extend the chain with the next Byzantine signer.
		idx := r - 1
		if idx >= len(byz) {
			a.alive = false // out of distinct Byzantine signers
			return
		}
		a.cur = a.env.Extend(byz[idx], a.cur)
	}
	// In the final round, hand the chain to exactly one correct node,
	// timed to arrive during round R (processed at the last boundary).
	if r == R && a.alive {
		target := a.env.Roster.Correct()[0]
		m := a.cur
		from := byz[len(byz)-1]
		a.env.Send(from, target, m)
	}
}

// SenderEquivocator is the classic Byzantine-sender attack: in round 1 the
// first Byzantine node sends value +1 to half the correct nodes and −1 to
// the other half (each with a valid single-signature chain). Dolev–Strong
// guarantees consistency, not sender validity: relaying exposes both
// values to everyone within the t+1 rounds, every correct node extracts
// two values for the slot and delivers ⊥ — consistently.
type SenderEquivocator struct {
	env *Env
}

// Init implements Adversary.
func (a *SenderEquivocator) Init(env *Env) { a.env = env }

// Round implements Adversary.
func (a *SenderEquivocator) Round(r int) {
	if r != 1 {
		return
	}
	byz := a.env.Roster.Byzantines()
	if len(byz) == 0 {
		return
	}
	sender := byz[0]
	plus := a.env.NewMessage(sender, +1)
	minus := a.env.NewMessage(sender, -1)
	correct := a.env.Roster.Correct()
	for i, id := range correct {
		if i%2 == 0 {
			a.env.Send(sender, id, plus)
		} else {
			a.env.Send(sender, id, minus)
		}
	}
}
