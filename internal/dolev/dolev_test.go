package dolev

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/appendmem"
	"repro/internal/msgnet"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func TestMessageRoundTrip(t *testing.T) {
	s := sim.New()
	nw := msgnet.New(s, xrand.New(1, 1), 3, 0.9)
	m := extend(nw.Signer(1), message{Instance: 1, Value: -7})
	m = extend(nw.Signer(2), m)
	got, err := unmarshalMessage(m.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Instance != 1 || got.Value != -7 || len(got.Chain) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	if !validChain(nw, got) {
		t.Fatal("valid chain rejected after round trip")
	}
}

func TestValidChainRules(t *testing.T) {
	s := sim.New()
	nw := msgnet.New(s, xrand.New(2, 2), 4, 0.9)

	// Chain must start with the instance's sender.
	wrongStart := extend(nw.Signer(2), message{Instance: 1, Value: 5})
	if validChain(nw, wrongStart) {
		t.Fatal("chain not starting with sender accepted")
	}
	// Duplicate signers rejected.
	m := extend(nw.Signer(1), message{Instance: 1, Value: 5})
	dup := extend(nw.Signer(1), m)
	if validChain(nw, dup) {
		t.Fatal("duplicate signer accepted")
	}
	// Tampered value rejected.
	good := extend(nw.Signer(1), message{Instance: 1, Value: 5})
	tampered := good
	tampered.Value = 6
	if validChain(nw, tampered) {
		t.Fatal("tampered value accepted")
	}
	// Empty chain rejected.
	if validChain(nw, message{Instance: 1, Value: 5}) {
		t.Fatal("empty chain accepted")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{nil, {1, 2, 3}, make([]byte, 13)} {
		if _, err := unmarshalMessage(b); err == nil {
			t.Fatalf("garbage of length %d accepted", len(b))
		}
	}
}

func TestAllHonestAgreement(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := MustRun(Config{N: 5, T: 0, Rounds: 1, Seed: seed, Inputs: node.SplitInputs(5, 3)})
		if !r.Consistent {
			t.Fatalf("seed %d: inconsistent delivery with no faults", seed)
		}
		if !r.Verdict.Agreement || !r.Verdict.Termination {
			t.Fatalf("seed %d: %+v", seed, r.Verdict)
		}
		for _, id := range r.Roster.Correct() {
			if r.Outcome.Decision[id] != +1 {
				t.Fatalf("majority +1 not decided: %v", r.Outcome.Decision)
			}
		}
	}
}

func TestDeliveredVectorMatchesInputs(t *testing.T) {
	r := MustRun(Config{N: 4, T: 0, Rounds: 1, Seed: 3, Inputs: node.Inputs{+1, -1, +1, -1}})
	for _, id := range r.Roster.Correct() {
		for s, v := range r.Delivered[id] {
			if v != r.Inputs[s] {
				t.Fatalf("node %d delivered %d for sender %d, want %d", id, v, s, r.Inputs[s])
			}
		}
	}
}

func TestSilentByzantineDeliversBottom(t *testing.T) {
	r := MustRun(Config{N: 5, T: 2, Seed: 1})
	for _, id := range r.Roster.Correct() {
		for _, b := range r.Roster.Byzantines() {
			if r.Delivered[id][b] != Bottom {
				t.Fatalf("silent Byzantine slot delivered %d", r.Delivered[id][b])
			}
		}
	}
	if !r.Verdict.OK() {
		t.Fatalf("%+v", r.Verdict)
	}
}

// The message-passing twin of E2: staged release breaks consistency for
// every round budget <= t and never for t+1.
func TestStagedReleaseStaircase(t *testing.T) {
	for _, tc := range []struct{ n, tt int }{{5, 2}, {7, 3}} {
		for rounds := 1; rounds <= tc.tt+1; rounds++ {
			broke := 0
			const trials = 10
			for seed := uint64(0); seed < trials; seed++ {
				r := MustRun(Config{
					N: tc.n, T: tc.tt, Rounds: rounds, Seed: seed,
					Adversary: &StagedRelease{},
				})
				if !r.Consistent {
					broke++
				}
			}
			if rounds <= tc.tt && broke == 0 {
				t.Errorf("n=%d t=%d rounds=%d: staged release never broke consistency",
					tc.n, tc.tt, rounds)
			}
			if rounds == tc.tt+1 && broke != 0 {
				t.Errorf("n=%d t=%d rounds=%d: consistency broke %d/%d at t+1 rounds",
					tc.n, tc.tt, rounds, broke, trials)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{N: 0},
		{N: 3, T: 3},
		{N: 3, T: -1},
		{N: 3, T: 1, Rounds: -2},
		{N: 3, T: 1, Inputs: node.AllSame(2, 1)},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestDefaultRounds(t *testing.T) {
	r := MustRun(Config{N: 4, T: 2, Seed: 1})
	_ = r // t+1 = 3 rounds ran; success implies the schedule completed
	if !r.Verdict.Termination {
		t.Fatal("termination failed")
	}
}

func TestMessageComplexityQuadraticPerRound(t *testing.T) {
	// n instances × n relays per extraction: relay traffic is Θ(n²) per
	// round minimum; verify it is counted and grows with n.
	small := MustRun(Config{N: 4, T: 1, Seed: 1}).Stats.Messages
	big := MustRun(Config{N: 8, T: 1, Seed: 1}).Stats.Messages
	if big <= small*2 {
		t.Fatalf("traffic not superlinear in n: %d -> %d", small, big)
	}
}

func TestEnvSignerGuards(t *testing.T) {
	r := node.NewRoster(4, 1)
	env := &Env{Roster: r, signers: map[appendmem.NodeID]*msgnet.Signer{}}
	defer func() {
		if recover() == nil {
			t.Fatal("honest signer handed to adversary")
		}
	}()
	env.Signer(0)
}

func TestSenderEquivocationDeliversBottomConsistently(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		r := MustRun(Config{N: 6, T: 2, Seed: seed, Adversary: &SenderEquivocator{}})
		if !r.Consistent {
			t.Fatalf("seed %d: equivocation broke consistency at t+1 rounds", seed)
		}
		byz := r.Roster.Byzantines()[0]
		for _, id := range r.Roster.Correct() {
			if r.Delivered[id][byz] != Bottom {
				t.Fatalf("seed %d: node %d delivered %d for the equivocating sender, want ⊥",
					seed, id, r.Delivered[id][byz])
			}
		}
	}
}

func TestSenderEquivocationWithOneRoundMaySplit(t *testing.T) {
	// With a single round (t=1 would need 2) the two halves never exchange
	// relays: the slot splits. Count split runs; they must exist.
	split := 0
	for seed := uint64(0); seed < 15; seed++ {
		r := MustRun(Config{N: 6, T: 2, Rounds: 1, Seed: seed, Adversary: &SenderEquivocator{}})
		if !r.Consistent {
			split++
		}
	}
	if split == 0 {
		t.Fatal("one-round runs never split under sender equivocation")
	}
}

// sendLog is an adversary that stays silent and logs every send of the
// run through the network's drop filter, dropping nothing.
type sendLog struct{ sends []msgnet.Envelope }

func (a *sendLog) Init(env *Env) {
	env.NW.SetDrop(func(e msgnet.Envelope) bool {
		a.sends = append(a.sends, e)
		return false
	})
}

func (a *sendLog) Round(int) {}

// The network draws one delay per send, so the order in which the honest
// nodes send fixes which message gets which delay. Two runs with the same
// seed must send in the same (From, To) order.
func TestRunSendOrderDeterministic(t *testing.T) {
	order := func() []string {
		log := &sendLog{}
		MustRun(Config{N: 7, T: 3, Seed: 5, Adversary: log})
		out := make([]string, len(log.sends))
		for i, e := range log.sends {
			out[i] = fmt.Sprintf("%d>%d", e.From, e.To)
		}
		return out
	}
	want := order()
	if len(want) == 0 {
		t.Fatal("no sends logged")
	}
	for rep := 0; rep < 5; rep++ {
		if got := order(); !slices.Equal(got, want) {
			t.Fatalf("repeat %d sent in a different order:\n got %v\nwant %v", rep, got, want)
		}
	}
}

// In a run without Byzantine senders every relay that reaches a correct
// node has its whole chain verified, so ed25519 runs once per distinct
// (signer, signed bytes, sig) triple on the wire to a correct node and
// every other check is a memo hit.
func TestVerifyMemoCountsDistinctTriples(t *testing.T) {
	log := &sendLog{}
	r := MustRun(Config{N: 5, T: 2, Seed: 1, Adversary: log})
	distinct := map[string]bool{}
	for _, e := range log.sends {
		if r.Roster.IsByzantine(e.To) {
			continue // registered to a no-op handler: never verified
		}
		m, err := unmarshalMessage(e.Body)
		if err != nil {
			t.Fatal(err)
		}
		payload := payloadBytes(m.Instance, m.Value)
		for i, c := range m.Chain {
			distinct[fmt.Sprintf("%d|%x|%x", c.Signer, signedSoFar(payload, m.Chain, i), c.Sig)] = true
		}
	}
	st := r.Stats
	if got := st.Verifies - st.VerifyHits; got != len(distinct) {
		t.Fatalf("ed25519 runs = %d (Verifies %d − VerifyHits %d), distinct triples = %d",
			got, st.Verifies, st.VerifyHits, len(distinct))
	}
	if st.VerifyHits == 0 {
		t.Fatalf("no memo hits in %d verifications", st.Verifies)
	}
}
