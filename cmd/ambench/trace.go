package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/access"
	"repro/internal/agreement"
	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// span is one timed interval of the traced run. Spans of one trial share
// its index; Parent is the ID of the enclosing span, 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Trial  int     `json:"trial"`    // index in the traced subset; -1 outside trials
	Start  int64   `json:"start_ns"` // since the tracer was created
	End    int64   `json:"end_ns"`
	Sim    float64 `json:"sim"` // simulated time when the span began
}

// tracer records spans in memory; they are written out once the run
// ends. The traced run is serial, so the tracer needs no locking.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indexes of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, trial int, at sim.Time) {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Trial: trial,
		Sim: float64(at), Start: time.Since(t.origin).Nanoseconds()})
	t.open = append(t.open, len(t.spans)-1)
}

func (t *tracer) end() {
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.origin).Nanoseconds()
}

// spanTotals is the count, total time and self time of the spans of one
// name. A span's self time is its duration minus its children's.
type spanTotals struct {
	count       int
	total, self int64 // ns
}

// summary totals the spans by name and fails on a negative self time,
// which would mean a child outlived its parent.
func (t *tracer) summary() (map[string]spanTotals, error) {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent-1] += s.End - s.Start
		}
	}
	out := map[string]spanTotals{}
	for i, s := range t.spans {
		self := s.End - s.Start - children[i]
		if self < 0 {
			return nil, fmt.Errorf("span %d (%s) has negative self time %d ns", s.ID, s.Name, self)
		}
		st := out[s.Name]
		st.count++
		st.total += s.End - s.Start
		st.self += self
		out[s.Name] = st
	}
	return out, nil
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// trialRec is what the wrappers record during one traced trial: the spans
// go to the tracer, the call streams feed the layer replays.
type trialRec struct {
	tr    *tracer
	trial int
	sim   *sim.Sim          // captured from the adversary's Env
	mem   *appendmem.Memory // likewise
	nodes []nodeCalls       // per correct node, in node-id order

	appendAt   []sim.Time // per message id: when it was appended
	decideHits int
	byzAppends int
}

// nodeCalls is one correct node's recorded calls; appends and decisions
// are separate streams because the rules index them with separate caches.
type nodeCalls struct {
	appends, decides []call
}

// call is one recorded Append or Decide: the size of the view it was
// handed, the message an append wrote, a decision's outcome.
type call struct {
	size int
	msg  appendmem.MsgID
	v    int64
	ok   bool
}

func (r *trialRec) now() sim.Time { return r.sim.Now() }

// noteAppends stamps every message appended since the last call.
func (r *trialRec) noteAppends() {
	for len(r.appendAt) < r.mem.Len() {
		r.appendAt = append(r.appendAt, r.now())
	}
}

// spanNames are one rule layer's span names, built once per pass so the
// wrappers do not concatenate strings per call.
type spanNames struct {
	append, decide, compact string
}

func namesFor(layer string) spanNames {
	return spanNames{layer + ".append", layer + ".decide", layer + ".compact"}
}

// tracedRule wraps the bound honest rule. It implements PerNodeState, so
// the harness asks it for one instance per correct node, in node-id order:
// the n-th instance of a trial is node n. A per-node instance forwards the
// windowed-memory hooks, which the harness calls only when the spec has a
// window and Bind has checked the inner rule implements them.
type tracedRule struct {
	inner agreement.HonestRule
	rec   *trialRec
	names spanNames
	node  int
}

// NewNodeRule implements agreement.PerNodeState.
func (r *tracedRule) NewNodeRule() agreement.HonestRule {
	inner := r.inner
	if f, ok := inner.(agreement.PerNodeState); ok {
		inner = f.NewNodeRule()
	}
	r.rec.nodes = append(r.rec.nodes, nodeCalls{})
	return &tracedRule{inner: inner, rec: r.rec, names: r.names, node: len(r.rec.nodes) - 1}
}

// Append implements agreement.HonestRule.
func (r *tracedRule) Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG) {
	rec := r.rec
	rec.tr.begin(r.names.append, rec.trial, rec.now())
	r.inner.Append(view, w, input, rng)
	rec.tr.end()
	nc := &rec.nodes[r.node]
	nc.appends = append(nc.appends, call{size: view.Size(), msg: appendmem.MsgID(rec.mem.Len() - 1)})
	rec.noteAppends()
}

// Decide implements agreement.HonestRule.
func (r *tracedRule) Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool) {
	rec := r.rec
	rec.tr.begin(r.names.decide, rec.trial, rec.now())
	v, ok := r.inner.Decide(view, k, rng)
	rec.tr.end()
	nc := &rec.nodes[r.node]
	nc.decides = append(nc.decides, call{size: view.Size(), v: v, ok: ok})
	if ok {
		rec.decideHits++
	}
	return v, ok
}

// ViewFloor implements agreement.WindowedRule.
func (r *tracedRule) ViewFloor() int { return r.inner.(agreement.WindowedRule).ViewFloor() }

// CompactTo implements agreement.WindowedRule.
func (r *tracedRule) CompactTo(w int) int {
	r.rec.tr.begin(r.names.compact, r.rec.trial, r.rec.now())
	defer r.rec.tr.end()
	return r.inner.(agreement.WindowedRule).CompactTo(w)
}

// tracedAdversary wraps the bound adversary. Its Init hands the wrappers
// the run's simulator and memory. Like tracedRule it forwards the
// windowed-memory hooks, which Bind has checked the inner one implements
// whenever the harness calls them.
type tracedAdversary struct {
	inner agreement.Adversary
	rec   *trialRec
}

// Init implements agreement.Adversary.
func (a *tracedAdversary) Init(env *agreement.Env) {
	a.rec.sim, a.rec.mem = env.Sim, env.Mem
	a.inner.Init(env)
}

// OnGrant implements agreement.Adversary.
func (a *tracedAdversary) OnGrant(g access.Grant) {
	rec := a.rec
	before := rec.mem.Len()
	rec.tr.begin("adversary.grant", rec.trial, rec.now())
	a.inner.OnGrant(g)
	rec.tr.end()
	rec.byzAppends += rec.mem.Len() - before
	rec.noteAppends()
}

// ViewFloor implements agreement.WindowedAdversary.
func (a *tracedAdversary) ViewFloor() int { return a.inner.(agreement.WindowedAdversary).ViewFloor() }

// CompactTo implements agreement.WindowedAdversary.
func (a *tracedAdversary) CompactTo(w int) { a.inner.(agreement.WindowedAdversary).CompactTo(w) }
