package bivalence

import "fmt"

// This file defines the candidate protocol family the Theorem 2.1
// experiment sweeps. Each protocol follows the natural shape of a
// read-write consensus attempt in the append memory: append your input
// once, then read until a decision criterion fires. The family varies the
// wait threshold θ (how many appends a node must see before deciding) and
// the decision function. Theorem 2.1 predicts that every member fails
// agreement, validity or 1-resilient termination — the checker verifies it
// exhaustively for small n.

// DecisionFunc maps the multiset of seen messages to a decision value.
type DecisionFunc struct {
	Name string
	F    func(view []Msg) int
}

// DecideMajority decides the majority value, ties broken towards the value
// of the smallest author seen.
var DecideMajority = DecisionFunc{
	Name: "majority",
	F: func(view []Msg) int {
		count := [2]int{}
		minAuthor, minVal := 1<<30, 0
		for _, m := range view {
			count[m.Value]++
			if m.Author < minAuthor {
				minAuthor, minVal = m.Author, m.Value
			}
		}
		switch {
		case count[0] > count[1]:
			return 0
		case count[1] > count[0]:
			return 1
		default:
			return minVal
		}
	},
}

// DecideMinAuthor decides the value appended by the smallest author seen.
var DecideMinAuthor = DecisionFunc{
	Name: "min-author",
	F: func(view []Msg) int {
		best, val := 1<<30, 0
		for _, m := range view {
			if m.Author < best {
				best, val = m.Author, m.Value
			}
		}
		return val
	},
}

// DecideMaxValue decides 1 if any 1 was seen (OR of the inputs seen).
var DecideMaxValue = DecisionFunc{
	Name: "max-value",
	F: func(view []Msg) int {
		for _, m := range view {
			if m.Value == 1 {
				return 1
			}
		}
		return 0
	},
}

// ThresholdVote is the family member: append the input once, then read
// until at least Theta distinct authors are visible, then decide
// Decide.F(view).
type ThresholdVote struct {
	Theta  int
	Decide DecisionFunc
}

// NewThresholdVote constructs a family member.
func NewThresholdVote(theta int, decide DecisionFunc) *ThresholdVote {
	return &ThresholdVote{Theta: theta, Decide: decide}
}

// Name implements Protocol.
func (t *ThresholdVote) Name() string {
	return fmt.Sprintf("threshold-vote(θ=%d,%s)", t.Theta, t.Decide.Name)
}

// State encoding: bit 0 is the input, bit 1 is set once it is appended.
// Everything else the node knows is read fresh from the memory, so no
// more needs to be remembered.
const thresholdAppended = 2

// Init implements Protocol.
func (t *ThresholdVote) Init(_, input int) State {
	return State{Data: uint16(input)}
}

// Next implements Protocol.
func (t *ThresholdVote) Next(_ int, s State) Op {
	if s.Data&thresholdAppended == 0 {
		return Op{Append: true, Value: int(s.Data & 1)}
	}
	return Op{}
}

// OnAppend implements Protocol.
func (t *ThresholdVote) OnAppend(_ int, s State) State {
	return State{Data: s.Data | thresholdAppended}
}

// OnRead implements Protocol.
func (t *ThresholdVote) OnRead(_ int, s State, view []Msg) State {
	if s.Data&thresholdAppended == 0 {
		return s // still has to append; reads before that change nothing
	}
	// The view is sorted by (author, seq), so distinct authors are the
	// author-change boundaries — no set needed.
	distinct, prev := 0, -1
	for _, m := range view {
		if m.Author != prev {
			distinct++
			prev = m.Author
		}
	}
	if distinct < t.Theta {
		return s
	}
	return State{Data: s.Data, Decided: true, Decision: uint8(t.Decide.F(view))}
}

// Family returns the candidate protocols checked in the Theorem 2.1
// experiment for n nodes: all thresholds 1..n crossed with the three
// decision functions.
func Family(n int) []Protocol {
	var ps []Protocol
	for theta := 1; theta <= n; theta++ {
		for _, d := range []DecisionFunc{DecideMajority, DecideMinAuthor, DecideMaxValue} {
			ps = append(ps, NewThresholdVote(theta, d))
		}
	}
	return ps
}

// RetryVote is the FLP-style adaptive protocol on which the paper's
// bivalence argument bites in its full form: nodes vote in phases
// (a node's phase-p vote is its (p+1)-th append), wait until n−1 distinct
// authors have voted in their current phase, decide on unanimity and
// otherwise adopt the majority and move to the next phase. It satisfies
// validity, pursues termination — and therefore, by Theorem 2.1, must
// admit schedules on which it never decides. The computation graph is
// infinite (phases are unbounded); the checker explores it truncated and
// exhibits arbitrarily long non-deciding bivalent schedules.
type RetryVote struct {
	// N is the number of nodes (the wait threshold is N−1).
	N int
}

// Name implements Protocol.
func (r *RetryVote) Name() string { return fmt.Sprintf("retry-vote(n=%d)", r.N) }

// State encoding: phase<<2 | vote<<1 | retryAppended, where the
// retryAppended bit is clear while the node must append its phase vote and
// set once it reads.
const retryAppended = 1

// Init implements Protocol.
func (r *RetryVote) Init(_, input int) State {
	return State{Data: uint16(input << 1)}
}

// Next implements Protocol.
func (r *RetryVote) Next(_ int, s State) Op {
	if s.Data&retryAppended == 0 {
		return Op{Append: true, Value: int(s.Data >> 1 & 1)}
	}
	return Op{}
}

// OnAppend implements Protocol.
func (r *RetryVote) OnAppend(_ int, s State) State {
	return State{Data: s.Data | retryAppended}
}

// OnRead implements Protocol.
func (r *RetryVote) OnRead(_ int, s State, view []Msg) State {
	if s.Data&retryAppended == 0 {
		return s
	}
	phase := int(s.Data >> 2)
	// Phase-p votes are the appends with Seq == p.
	count := [2]int{}
	total := 0
	for _, m := range view {
		if m.Seq == phase {
			count[m.Value]++
			total++
		}
	}
	if total < r.N-1 {
		return s
	}
	if count[0] == total || count[1] == total {
		var d uint8
		if count[1] > 0 {
			d = 1
		}
		return State{Data: s.Data, Decided: true, Decision: d}
	}
	adopt := 0
	if count[1] > count[0] {
		adopt = 1
	}
	return State{Data: uint16((phase+1)<<2 | adopt<<1)}
}
