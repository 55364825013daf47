// Package agreement provides the shared execution harness for the
// randomized-access Byzantine agreement protocols of Section 5: the
// timestamp baseline (Algorithm 4), the Chain (Algorithm 5) and the DAG
// (Algorithm 6). The three protocols differ only in how an honest node
// appends and when/how it decides; everything else — the token authority
// (access.Authority), the bounded-staleness read schedule of synchronous
// nodes, the crash model, outcome collection — is identical and lives here.
//
// # Timing model
//
// Nodes are synchronous with bound Δ (§1.1): the interval between two local
// operations of one node is at most Δ. Reads are free; append access is
// rationed by the Poisson authority (rate λ per node per Δ). The harness
// realizes the synchrony bound as bounded staleness: each correct node
// refreshes its view of the memory every Δ (at a fixed per-node phase) and,
// when granted access, appends based on its most recent refresh. An append
// may therefore reference a view up to Δ old — this is exactly the source
// of honest forks in Theorem 5.4's analysis ("appends by correct nodes
// inside the same interval Δ will be concurrent and therefore generate a
// fork").
//
// Byzantine nodes are bound by nothing except the access rationing: the
// Adversary sees the memory fresh at every instant and appends whatever
// well-formed message it likes when granted access.
//
// # The run loop
//
// RunRandomized drives each trial through a pooled run: setup, an optional
// restore from a Checkpoint, schedule, the event loop, collect. The base
// loop is two events: a grant (the adversary or a correct node appends,
// then the shared epilogue appended runs) and a node's periodic read
// (refresh the view, try to decide). The run holds its authority by value
// and binds both events once per pooled run, not once per trial. Each
// optional feature is one method behind a single zero-value check at its
// call site: topology visibility (vis), stalls (maybeStall), async delays
// (delayedAppend), tracing, windowed retirement (window.go) and
// checkpoints (checkpoint.go).
package agreement

import (
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/appendmem"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// RandomizedConfig configures one run under randomized memory access.
type RandomizedConfig struct {
	N      int     // total nodes
	T      int     // Byzantine nodes (the last T ids)
	Lambda float64 // token rate per node per Delta
	// Rates, when non-nil, gives each node its own token rate per Delta —
	// heterogeneous "hashing power" under weighted Poisson access.
	// Overrides Lambda and RoundRobinAccess; len must equal N.
	Rates []float64
	Delta float64 // synchrony bound; 0 means 1.0
	K     int     // decision threshold (number of values); should be odd
	Seed  uint64

	// Inputs are the per-node input values; nil means all correct nodes
	// hold +1 (the all-same-validity workload, with Byzantine inputs
	// irrelevant).
	Inputs node.Inputs

	// Crashes marks this many correct nodes crash-faulty; each stops at a
	// uniformly random time within the expected run duration.
	Crashes int

	// FreshHonestReads removes the Δ staleness of honest nodes: appends
	// use a view read at the grant instant. This is an ablation knob — it
	// deletes the fork source of Theorem 5.4's analysis, so the chain's
	// rate-dependent collapse should disappear (experiment E12).
	FreshHonestReads bool

	// StallAtSize > 0 injects the temporal asynchrony discussed at the end
	// of Section 5.3: once the memory reaches StallAtSize messages, honest
	// nodes stop refreshing their views (and deciding) for StallFor·Δ,
	// while Byzantine nodes keep reading fresh. The paper argues this
	// reduces the DAG's Byzantine-agreement resilience — unlike Nakamoto
	// consensus, the decision prefix is fixed, so the adversary stuffs it
	// during the blackout (experiment E11).
	StallAtSize int
	StallFor    float64 // in multiples of Delta; 0 means 8

	// RoundRobinAccess replaces Poisson token arrivals with the burst-free
	// deterministic round-robin cadence at the same aggregate rate — the
	// access-discipline ablation of experiment E17. Rates take precedence:
	// with Rates set the run uses weighted Poisson access and ignores this
	// flag (scenario.Bind rejects specs that ask for both).
	RoundRobinAccess bool

	// AsyncDelayMax > 0 makes the honest nodes asynchronous in the sense
	// of Theorem 5.1: the time between receiving an access token and
	// performing the append is no longer negligible but uniform in
	// (0, AsyncDelayMax·Δ], and the append is made against the view the
	// node held when the token arrived. The access order defined by the
	// authority then loses its meaning ("the delays are significantly
	// larger than the append rate, such that the access order ... becomes
	// insignificant"), and deterministic agreement degrades at ANY rate —
	// experiment E16.
	AsyncDelayMax float64

	// Topology, when non-nil, replaces the uniform Δ visibility of honest
	// nodes with propagation over an explicit network graph: every append
	// is flooded from its author (per-link delays shaped by
	// TopologyDelay, latencies in simulator time units), and a correct
	// node's refreshed view is the maximal fully-arrived prefix tracked
	// by access.Visibility instead of the whole memory. Appends still
	// land in the shared memory instantly — the topology delays who can
	// *see* them, which is where the paper's Δ assumption actually bites.
	// The adversary remains omniscient (fresh reads), the strongest
	// setting. The graph must have exactly N nodes and be connected. Nil
	// keeps the original code path untouched, byte for byte.
	Topology *topology.Graph
	// TopologyDelay shapes per-link transmission delays when Topology is
	// set; the zero value is the fixed distribution.
	TopologyDelay topology.DelayModel

	// Trace, when non-nil, records every grant, append, read, decision,
	// crash and blackout of the run (see internal/trace). Nil disables
	// tracing with no overhead.
	Trace *trace.Recorder

	// Window > 0 runs the memory in windowed (bounded-live) mode: every Δ
	// the harness computes the reachability watermark — the minimum
	// ViewFloor over all still-appending parties, keeping at least Window
	// messages live — compacts every party's index to it, and retires the
	// memory chunks below it back to the slab pool. Decisions are
	// unchanged; reads below the watermark panic. Requires the rule and
	// the adversary to implement WindowedRule/WindowedAdversary, and is
	// incompatible with Topology, AsyncDelayMax, StallAtSize and
	// checkpointing. 0 keeps the unbounded memory, byte for byte.
	Window int

	// CheckpointSink, when non-nil, receives the run's Checkpoint captured
	// immediately before the first decision commits (never called when no
	// node decides). ResumeFrom, when non-nil, fast-forwards the run from
	// such a checkpoint instead of simulating the shared prefix — valid
	// only when this run is guaranteed identical to the capturing run up
	// to the capture instant (e.g. the same spec with a deeper
	// confirmation). Both are incompatible with Topology, AsyncDelayMax,
	// StallAtSize, Trace and Window.
	CheckpointSink func(*Checkpoint)
	ResumeFrom     *Checkpoint
}

func (c *RandomizedConfig) fill() error {
	if c.Delta == 0 {
		c.Delta = 1
	}
	if c.N <= 0 || c.T < 0 || c.T >= c.N {
		return fmt.Errorf("agreement: invalid n=%d t=%d", c.N, c.T)
	}
	if c.Rates != nil {
		if len(c.Rates) != c.N {
			return fmt.Errorf("agreement: %d rates for %d nodes", len(c.Rates), c.N)
		}
		total := 0.0
		for _, r := range c.Rates {
			if r <= 0 {
				return fmt.Errorf("agreement: non-positive per-node rate %v", r)
			}
			total += r
		}
		c.Lambda = total / float64(c.N) // effective mean rate, for durations
	}
	if c.Lambda <= 0 || c.Delta <= 0 {
		return fmt.Errorf("agreement: invalid lambda=%v delta=%v", c.Lambda, c.Delta)
	}
	if c.K <= 0 {
		return fmt.Errorf("agreement: invalid k=%d", c.K)
	}
	if c.StallAtSize > 0 && c.StallFor == 0 {
		c.StallFor = 8
	}
	if c.Inputs == nil {
		c.Inputs = node.AllSame(c.N, +1)
	}
	if len(c.Inputs) != c.N {
		return fmt.Errorf("agreement: %d inputs for %d nodes", len(c.Inputs), c.N)
	}
	if c.Topology != nil {
		if c.Topology.N() != c.N {
			return fmt.Errorf("agreement: topology has %d nodes for %d", c.Topology.N(), c.N)
		}
		if !c.Topology.Connected() {
			return fmt.Errorf("agreement: topology is disconnected")
		}
	}
	if c.Window < 0 {
		return fmt.Errorf("agreement: negative window %d", c.Window)
	}
	checkpointing := c.CheckpointSink != nil || c.ResumeFrom != nil
	if c.Window > 0 || checkpointing {
		if c.Topology != nil || c.AsyncDelayMax > 0 || c.StallAtSize > 0 {
			return fmt.Errorf("agreement: window/checkpoint modes require the default timing model (no topology, async delays or stalls)")
		}
	}
	if c.Window > 0 && checkpointing {
		return fmt.Errorf("agreement: window and checkpointing are mutually exclusive (a windowed memory cannot be cloned)")
	}
	if checkpointing && c.Trace.Enabled() {
		return fmt.Errorf("agreement: checkpointing is incompatible with tracing")
	}
	if cp := c.ResumeFrom; cp != nil {
		if len(cp.NodeRngs) != c.N || len(cp.CrashAt) != c.N || len(cp.ReadAt) != c.N || len(cp.ViewSizes) != c.N {
			return fmt.Errorf("agreement: checkpoint captured for a different node count")
		}
	}
	return nil
}

// HonestRule is the protocol-specific behaviour of a correct node.
type HonestRule interface {
	// Append performs the node's append given its (possibly stale) view.
	// Implementations must append exactly once via w.
	Append(view appendmem.View, w *appendmem.Writer, input int64, rng *xrand.PCG)
	// Decide inspects the node's freshly read view and returns the node's
	// decision when the protocol's condition (e.g. a longest chain of
	// length k) is met.
	Decide(view appendmem.View, k int, rng *xrand.PCG) (int64, bool)
}

// PerNodeState is optionally implemented by HonestRules that keep per-node
// incremental state — e.g. cached substrate indexes that extend with the
// node's monotonically growing view instead of rebuilding per read.
// Unless PerRunState takes precedence, RunRandomized calls NewNodeRule
// once per correct node and drives that node exclusively through the
// returned instance; a rule with neither is shared, stateless, across all
// nodes. The returned rule must decide and append exactly like the
// original: per-node state is a performance vehicle, never a behavioural
// one. Windowed runs, the ValueFlip adversary and wrappers that expose
// only this hook keep the per-node path.
type PerNodeState interface {
	NewNodeRule() HonestRule
}

// PerRunState is optionally implemented by HonestRules whose correct nodes
// can share one index per trial. Every view a node reads is a prefix of
// the trial's memory, so one index extended in arrival order can answer
// each node at its own view's size. On the unbounded path (Window == 0)
// RunRandomized calls NewRunRule once per trial and drives every correct
// node through the returned rule instead of asking PerNodeState for one
// instance per node. Like PerNodeState it is a performance vehicle: the
// run rule must append and decide exactly like per-node instances.
type PerRunState interface {
	NewRunRule() RunRule
}

// RunRule is the rule one trial's correct nodes share. The run binds it to
// its memory with Reset before the first event — and again after a
// checkpoint restore swaps the memory for a clone — and hands it back
// with Release when the trial ends.
type RunRule interface {
	HonestRule
	// Reset binds the rule to mem, dropping everything indexed before.
	Reset(mem *appendmem.Memory)
	// Release returns the rule's index storage for reuse by a later trial;
	// the rule is not used afterwards.
	Release()
}

// nodeRule returns the per-node instance of rule when it keeps per-node
// state, else rule itself.
func nodeRule(rule HonestRule) HonestRule {
	if f, ok := rule.(PerNodeState); ok {
		return f.NewNodeRule()
	}
	return rule
}

// Env is the run environment handed to adversaries: full fresh access to
// the memory, the roster and the configuration.
type Env struct {
	Sim    *sim.Sim
	Mem    *appendmem.Memory
	Roster node.Roster
	Cfg    RandomizedConfig
	Rng    *xrand.PCG // the adversary's private randomness
	// Inputs as handed to the nodes (the adversary knows everything).
	Inputs node.Inputs
}

// Writer returns the append capability of a Byzantine node. It panics when
// asked for a correct node's writer — the adversary controls only its own
// registers.
func (e *Env) Writer(id appendmem.NodeID) *appendmem.Writer {
	if !e.Roster.IsByzantine(id) {
		panic("agreement: adversary requested an honest writer")
	}
	return e.Mem.Writer(id)
}

// Adversary drives the Byzantine nodes. OnGrant is invoked whenever the
// authority grants access to a Byzantine node; the adversary may use the
// grant, bank it, or waste it.
type Adversary interface {
	Init(env *Env)
	OnGrant(g access.Grant)
}

// Silent is the adversary that never appends (Byzantine nodes crash-mute).
type Silent struct{}

// Init implements Adversary.
func (Silent) Init(*Env) {}

// OnGrant implements Adversary.
func (Silent) OnGrant(access.Grant) {}

// ValueFlip is the generic adversary of the validity analyses: Byzantine
// nodes follow the honest structure rule — but always vote the opposite of
// the correct nodes' common input, and with a perfectly fresh view (no
// staleness handicap).
type ValueFlip struct {
	Rule  HonestRule
	Value int64      // the vote to cast; 0 means -1
	rule  HonestRule // per-run instance (fresh caches), set by Init
	env   *Env
}

// Init implements Adversary.
func (a *ValueFlip) Init(env *Env) {
	a.env = env
	// The adversary reads fresh on every grant, so one per-run rule
	// instance sees monotonically growing views and can reuse its index.
	a.rule = nodeRule(a.Rule)
	if a.Value == 0 {
		a.Value = -1
	}
}

// OnGrant implements Adversary.
func (a *ValueFlip) OnGrant(g access.Grant) {
	a.rule.Append(a.env.Mem.Read(), a.env.Writer(g.Node), a.Value, a.env.Rng)
}

// Result collects everything an experiment wants from one run.
type Result struct {
	Cfg     RandomizedConfig // the filled configuration the run used
	Roster  node.Roster
	Inputs  node.Inputs
	Outcome *node.Outcome
	Verdict node.Verdict

	Grants         int // tokens issued
	TotalAppends   int
	CorrectAppends int
	ByzAppends     int

	// DecideTime[i] is when node i decided (correct nodes only; zero when
	// undecided).
	DecideTime []sim.Time
	// DecideViewSize[i] is the size of the view node i decided on; with
	// Memory.ViewAt it reconstructs each node's exact decision view for
	// post-hoc analysis (e.g. the backbone common-prefix property).
	DecideViewSize []int
	// FinalView is the memory at the end of the run, for structure
	// analysis by experiments.
	FinalView appendmem.View
	// Mem is the underlying memory; combined with DecideViewSize it
	// reconstructs per-node decision views via Mem.ViewAt.
	Mem *appendmem.Memory
	// Duration is the virtual time when the run ended.
	Duration sim.Time
	// VisMeanLag is the mean propagation lag of appends over the
	// topology (0 under the default uniform-Δ visibility).
	VisMeanLag float64
	// MemHighWater is the peak number of live (unretired) messages over
	// the run — equal to TotalAppends for an unbounded memory, bounded
	// near Cfg.Window in windowed mode.
	MemHighWater int
}

// appendCap bounds a run's memory: the run aborts (a termination failure)
// once it holds appendCap·(K+N) messages.
const appendCap = 64

// RunRandomized executes one protocol run and returns its Result.
func RunRandomized(cfg RandomizedConfig, rule HonestRule, adv Adversary) (*Result, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	r := runPool.Get()
	defer r.release()
	if err := r.setup(cfg, rule, adv); err != nil {
		return nil, err
	}
	if cfg.ResumeFrom != nil {
		r.restore(cfg.ResumeFrom)
	}
	r.schedule()
	r.sim.Run()
	r.authority.Stop()
	return r.collect(), nil
}

// run is the state of one trial, shared by its event handlers. Runs are
// pooled (runner.Pool slots survive GC cycles), so trials reuse the event
// heap, the per-node slice, the authority with its bound grant event, the
// bound grant callback and each node's bound read event.
type run struct {
	cfg       RandomizedConfig
	sim       *sim.Sim
	mem       *appendmem.Memory
	roster    node.Roster
	outcome   *node.Outcome
	result    *Result
	adversary Adversary
	authority access.Authority
	onGrant   func(access.Grant) // grant, bound once per pooled run
	nodes     []nodeRun
	shared    RunRule // the correct nodes' rule under PerRunState; nil otherwise

	rngAuthority, rngAdversary, rngVis xrand.PCG

	done       bool
	undecided  int      // correct nodes yet to decide; the run ends at 0
	stallUntil sim.Time // honest reads black out before it; -1 until the stall fires

	vis        *access.Visibility // topology visibility; nil means uniform Δ
	pooledVis  *access.Visibility // vis's storage, kept across trials
	winAdv     WindowedAdversary  // windowed with Byzantine nodes: their floor
	retireTick func()             // windowed: retire, bound once
	sink       func(*Checkpoint)  // armed until the first decision
}

// nodeRun is one node's share of a run. A Byzantine node has no rule and
// is never scheduled to read.
type nodeRun struct {
	rule    HonestRule // the run's shared rule, or the node's own instance (see PerNodeState)
	rng     xrand.PCG
	view    appendmem.View // the last refreshed view, which appends use
	crashAt sim.Time
	readAt  sim.Time // the pending read
	read    func()   // the read event, bound once per pooled run
}

var runPool = runner.NewPool(func() *run {
	r := &run{sim: sim.New(), pooledVis: &access.Visibility{}}
	r.onGrant = r.grant
	return r
})

// release drops every reference into the finished trial (the Memory
// escapes into the Result) and returns the run to the pool.
func (r *run) release() {
	r.sim.Reset()
	for i := range r.nodes {
		r.nodes[i] = nodeRun{read: r.nodes[i].read}
	}
	r.pooledVis.Unbind()
	if r.shared != nil {
		r.shared.Release()
	}
	*r = run{sim: r.sim, nodes: r.nodes[:0], pooledVis: r.pooledVis, authority: r.authority, onGrant: r.onGrant}
	runPool.Put(r)
}

// setup builds a run's default state and schedules nothing. root splits
// the authority, adversary, node and (only with a topology) visibility
// streams, then draws crash times, then read phases: the goldens depend
// on this order.
func (r *run) setup(cfg RandomizedConfig, rule HonestRule, adv Adversary) error {
	r.cfg, r.adversary, r.sink = cfg, adv, cfg.CheckpointSink
	r.stallUntil = -1
	root := xrand.New(cfg.Seed, 0xA11CE)
	r.rngAuthority = *root.Split()
	r.rngAdversary = *root.Split()
	if cap(r.nodes) < cfg.N {
		r.nodes = make([]nodeRun, cfg.N)
	}
	r.nodes = r.nodes[:cfg.N]
	for i := range r.nodes {
		r.nodes[i].rng = *root.Split()
	}
	if cfg.Window > 0 {
		r.mem = appendmem.NewBounded(cfg.N, windowChunk(cfg.Window))
	} else {
		r.mem = appendmem.New(cfg.N)
	}
	if cfg.Topology != nil {
		r.rngVis = *root.Split()
		r.pooledVis.Rebind(r.sim, &r.rngVis, cfg.Topology, cfg.TopologyDelay, r.mem)
		r.vis = r.pooledVis
	}
	if p, ok := rule.(PerRunState); ok && cfg.Window == 0 {
		r.shared = p.NewRunRule()
		r.shared.Reset(r.mem)
	}
	r.roster = node.NewRoster(cfg.N, cfg.T).WithCrashes(cfg.Crashes)
	r.outcome = node.NewOutcome(cfg.N)
	r.result = &Result{Cfg: cfg, Roster: r.roster, Inputs: cfg.Inputs, Outcome: r.outcome,
		DecideTime: make([]sim.Time, cfg.N), DecideViewSize: make([]int, cfg.N)}
	// Crash nodes may stop at any time and are excluded from the consensus
	// properties; only the correct ones must decide.
	r.undecided = len(r.roster.Correct())
	for i := range r.nodes {
		nd, id := &r.nodes[i], appendmem.NodeID(i)
		if nd.read == nil {
			nd.read = func() { r.read(id) }
		}
		nd.view = r.mem.ViewAt(0)
		nd.crashAt = sim.Time(math.Inf(1))
		if r.roster.Role(id) == node.Crash {
			nd.crashAt = sim.Time(root.Float64()) * r.expDuration()
		}
		switch {
		case r.roster.IsByzantine(id):
		case r.shared != nil:
			nd.rule = r.shared
		default:
			nd.rule = nodeRule(rule)
		}
	}
	for i := range r.nodes {
		if nd := &r.nodes[i]; nd.rule != nil {
			nd.readAt = sim.Time(root.Float64() * cfg.Delta)
		}
	}
	rng := &r.rngAuthority
	if cfg.RoundRobinAccess && cfg.Rates == nil {
		rng = nil // the round-robin cadence
	}
	r.authority.Reset(r.sim, rng, cfg.N, cfg.Lambda, cfg.Delta, cfg.Rates, r.onGrant)
	if cfg.Window > 0 {
		return r.windowed(rule)
	}
	return nil
}

// expDuration is the expected run duration — K appends at aggregate rate
// Nλ/Δ, doubled for slack — which places crash times and the horizon.
func (r *run) expDuration() sim.Time {
	return sim.Time(2 * float64(r.cfg.K) * r.cfg.Delta / (r.cfg.Lambda * float64(r.cfg.N)))
}

// schedule registers the first events in the order the goldens depend on:
// the hard horizon (so a run where nobody can decide still ends), the
// adversary's Init, the retirement tick, traced crashes, each live correct
// node's first read, and the first grant.
func (r *run) schedule() {
	r.sim.At(64*r.expDuration()+sim.Time(64*r.cfg.Delta), r.finish)
	r.adversary.Init(&Env{Sim: r.sim, Mem: r.mem, Roster: r.roster, Cfg: r.cfg, Rng: &r.rngAdversary, Inputs: r.cfg.Inputs})
	if r.retireTick != nil {
		r.sim.After(sim.Time(r.cfg.Delta), r.retireTick)
	}
	if r.cfg.Trace.Enabled() {
		for i := range r.nodes {
			if id := appendmem.NodeID(i); r.roster.Role(id) == node.Crash {
				r.sim.At(r.nodes[i].crashAt, func() {
					r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.Crash, Node: id})
				})
			}
		}
	}
	for i := range r.nodes {
		// A node that crashed before a restored checkpoint had already left
		// the read loop.
		if nd := &r.nodes[i]; nd.rule != nil && r.alive(appendmem.NodeID(i)) {
			r.sim.At(nd.readAt, nd.read)
		}
	}
	r.authority.Start() // a no-op once restore has resumed it
}

func (r *run) alive(id appendmem.NodeID) bool { return r.sim.Now() < r.nodes[id].crashAt }

// view is a correct node's refreshed view: its arrival prefix over the
// topology, else the whole memory.
func (r *run) view(id appendmem.NodeID) appendmem.View {
	if r.vis != nil {
		return r.vis.ViewFor(id)
	}
	return r.mem.Read()
}

// grant hands one access token to the adversary or to a live correct node
// that has not decided (Algorithms 5/6 stop appending after deciding),
// which appends on its last view — or a fresh one under FreshHonestReads.
func (r *run) grant(g access.Grant) {
	if r.done {
		return
	}
	r.result.Grants++
	id := g.Node
	r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.Grant, Node: id})
	before, note := r.mem.Len(), ""
	switch {
	case r.roster.IsByzantine(id):
		r.adversary.OnGrant(g)
		note = "byzantine"
	case r.alive(id) && !r.outcome.Decided[id]:
		nd := &r.nodes[id]
		view := nd.view
		if r.cfg.FreshHonestReads {
			view = r.view(id)
		}
		if r.cfg.AsyncDelayMax > 0 {
			r.delayedAppend(id, view)
		} else {
			nd.rule.Append(view, r.mem.Writer(id), r.cfg.Inputs[id], &nd.rng)
		}
	}
	r.appended(before, note)
}

// delayedAppend is the async-delay feature (Theorem 5.1): the append lands
// uniformly within AsyncDelayMax·Δ of the grant, committed to the view the
// node held at token receipt.
func (r *run) delayedAppend(id appendmem.NodeID, view appendmem.View) {
	delay := sim.Time(r.nodes[id].rng.Float64() * r.cfg.AsyncDelayMax * r.cfg.Delta)
	r.sim.After(delay, func() {
		if r.done || !r.alive(id) {
			return
		}
		before, nd := r.mem.Len(), &r.nodes[id]
		nd.rule.Append(view, r.mem.Writer(id), r.cfg.Inputs[id], &nd.rng)
		r.appended(before, "delayed")
	})
}

// appended is the epilogue of every append site: it traces the messages
// appended since before, floods them over the topology, fires the stall,
// and ends the run at the append cap.
func (r *run) appended(before int, note string) {
	if r.cfg.Trace.Enabled() {
		for l := before; l < r.mem.Len(); l++ {
			msg := r.mem.Message(appendmem.MsgID(l))
			r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.Append, Node: msg.Author,
				Msg: msg.ID, Val: msg.Value, Note: note})
		}
	}
	if r.vis != nil {
		r.vis.Sync()
	}
	if r.cfg.StallAtSize > 0 {
		r.maybeStall()
	}
	if r.mem.Len() >= appendCap*(r.cfg.K+r.cfg.N) {
		r.finish()
	}
}

// maybeStall is the temporal-asynchrony feature (§5.3 discussion): once
// the memory holds StallAtSize messages, honest view refreshes black out
// for StallFor·Δ.
func (r *run) maybeStall() {
	if r.stallUntil >= 0 || r.mem.Len() < r.cfg.StallAtSize {
		return
	}
	r.stallUntil = r.sim.Now() + sim.Time(r.cfg.StallFor*r.cfg.Delta)
	r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.StallStart, Node: trace.System,
		Note: fmt.Sprintf("honest views blacked out until %.3f", float64(r.stallUntil))})
	r.sim.At(r.stallUntil, func() {
		r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.StallEnd, Node: trace.System})
	})
}

// read is a correct node's periodic refresh: outside a stall it takes a
// new view and, while undecided, tries to decide on it; then it re-arms Δ
// later.
func (r *run) read(id appendmem.NodeID) {
	if r.done || !r.alive(id) {
		return
	}
	nd := &r.nodes[id]
	if r.sim.Now() >= r.stallUntil {
		nd.view = r.view(id)
		r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.Read, Node: id})
		if !r.outcome.Decided[id] && r.decide(id) {
			return
		}
	}
	nd.readAt += sim.Time(r.cfg.Delta)
	r.sim.At(nd.readAt, nd.read)
}

// decide runs the node's rule on its view and records a decision; it
// reports whether the decision ended the run.
func (r *run) decide(id appendmem.NodeID) bool {
	nd := &r.nodes[id]
	pre := nd.rng.State() // a checkpoint holds the rng from before Decide's draws
	v, ok := nd.rule.Decide(nd.view, r.cfg.K, &nd.rng)
	if !ok {
		return false
	}
	if r.sink != nil {
		r.capture(id, pre)
	}
	r.outcome.Decide(id, v)
	r.result.DecideTime[id] = r.sim.Now()
	r.result.DecideViewSize[id] = nd.view.Size()
	r.cfg.Trace.Record(trace.Event{At: r.sim.Now(), Kind: trace.Decide, Node: id, Val: v})
	if r.roster.IsCorrect(id) {
		r.undecided--
		if r.undecided == 0 {
			r.finish()
			return true
		}
	}
	return false
}

func (r *run) finish() {
	if !r.done {
		r.done = true
		r.sim.Stop()
	}
}

// collect fills the Result from the finished run.
func (r *run) collect() *Result {
	res := r.result
	res.FinalView, res.Mem, res.Duration = r.mem.Read(), r.mem, r.sim.Now()
	res.TotalAppends, res.MemHighWater = r.mem.Len(), r.mem.LiveHighWater()
	// Per-author counts come from the register lengths, which stay valid
	// over a windowed memory.
	for i := range r.nodes {
		if id := appendmem.NodeID(i); r.roster.IsByzantine(id) {
			res.ByzAppends += r.mem.RegisterLen(id)
		} else {
			res.CorrectAppends += r.mem.RegisterLen(id)
		}
	}
	if r.vis != nil {
		res.VisMeanLag = r.vis.MeanLag()
	}
	res.Verdict = node.Evaluate(r.roster, r.cfg.Inputs, r.outcome)
	return res
}

// MustRun is RunRandomized but panics on configuration errors; for
// experiment code with vetted configs.
func MustRun(cfg RandomizedConfig, rule HonestRule, adv Adversary) *Result {
	r, err := RunRandomized(cfg, rule, adv)
	if err != nil {
		panic(err)
	}
	return r
}
