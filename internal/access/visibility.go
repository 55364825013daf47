package access

import (
	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Visibility derives per-node views of the shared append memory from
// message arrival times over a network topology, replacing the uniform
// Δ-bound with propagation that depends on where the author sits in the
// graph.
//
// Each announced append is flooded from its author: the author sees it
// immediately, every other node at the instant the flood first reaches it
// (per-link delays sampled from the delay model, duplicates suppressed).
// A node's view is the *maximal fully-arrived prefix* of the global
// memory: the longest leading run of messages that have all reached it.
// Prefixes are what keeps the model honest — appendmem views are totally
// ordered by construction (M(τ) ⊆ M(τ′), Definition 2.1), so a node that
// has message 7 but not message 5 cannot expose 7 yet; it reads up to 4
// until the gap fills. The prefix rule makes per-node views valid Views
// while preserving "later reads see no less".
//
// Determinism: every delay is drawn inside an event callback from a
// dedicated rng, one draw per relay to a neighbor the message has not yet
// reached, so per-node views are a pure function of (graph, delay model,
// rng state, append order) and byte-identical at any worker count.
//
// Cost: a relay whose arrival time cannot beat a hop already pending to
// the same node for the same message still draws its delay but is never
// scheduled (it could only be a duplicate). Every surviving hop is one
// simulator event bound to a pooled slot, and the per-node earliest
// pending arrivals live in per-flood records recycled when a flood's last
// hop fires, so this state is O(floods in flight · n). DESIGN.md §11
// explains why both shortcuts leave every arrival unchanged.
type Visibility struct {
	s   *sim.Sim
	rng *xrand.PCG
	g   *topology.Graph
	dm  topology.DelayModel
	mem *appendmem.Memory
	eps sim.Time

	announced int        // messages of mem already flooded
	announce  []float64  // announce instant per message
	arrived   [][]uint64 // per-node arrival bitset over message indexes
	prefix    []int      // per-node maximal fully-arrived prefix length

	floods    []flood // flood records, in flight or free
	freeFlood []int32
	hops      []hop // hop slots, each bound to its own simulator event
	freeHop   []int32

	totalLag   float64 // summed (arrival − announce) over non-author arrivals
	deliveries int     // number of non-author arrivals
}

// flood is the record of one message's flood while hops of it are
// pending: eta[j] is the earliest arrival time of a pending hop to node
// j, 0 when none was scheduled (hop times are always positive).
type flood struct {
	msg     int32
	pending int32 // scheduled hops not yet fired
	eta     []sim.Time
}

// hop is one in-flight link transmission: flood record fl reaching node
// to. fire is the slot's simulator event, bound once when the slot is
// first used.
type hop struct {
	fl, to int32
	fire   func()
}

// NewVisibility creates the visibility tracker for mem over graph g. The
// graph's node count must match the memory's; link latencies are in
// simulator time units.
func NewVisibility(s *sim.Sim, rng *xrand.PCG, g *topology.Graph, dm topology.DelayModel, mem *appendmem.Memory) *Visibility {
	v := &Visibility{}
	v.Rebind(s, rng, g, dm, mem)
	return v
}

// Rebind resets v to a fresh tracker for mem over g, as NewVisibility
// would build it, keeping the grown bitsets, flood records and hop slots
// so a pooled tracker floods a new trial without re-growing them. s must
// hold none of v's old hops (a new or Reset simulator). A zero Visibility
// is ready for Rebind.
func (v *Visibility) Rebind(s *sim.Sim, rng *xrand.PCG, g *topology.Graph, dm topology.DelayModel, mem *appendmem.Memory) {
	n := g.N()
	if n != mem.NumNodes() {
		panic("access: topology size does not match memory")
	}
	eps := sim.Time(g.MinLatency() / 1e9)
	if eps <= 0 {
		eps = 1e-9
	}
	v.s, v.rng, v.g, v.dm, v.mem, v.eps = s, rng, g, dm, mem, eps
	v.announced, v.announce = 0, v.announce[:0]
	v.totalLag, v.deliveries = 0, 0
	if cap(v.arrived) < n {
		v.arrived = append(v.arrived[:cap(v.arrived)], make([][]uint64, n-cap(v.arrived))...)
	}
	if cap(v.prefix) < n {
		v.prefix = make([]int, n)
	}
	v.arrived, v.prefix = v.arrived[:n], v.prefix[:n]
	for id := range v.arrived {
		v.arrived[id] = v.arrived[id][:0]
		v.prefix[id] = 0
	}
	v.freeFlood = v.freeFlood[:0]
	for i := range v.floods {
		f := &v.floods[i]
		if cap(f.eta) < n {
			f.eta = make([]sim.Time, n)
		}
		f.eta = f.eta[:n]
		clear(f.eta)
		f.pending = 0
		v.freeFlood = append(v.freeFlood, int32(i))
	}
	v.freeHop = v.freeHop[:0]
	for i := range v.hops {
		v.freeHop = append(v.freeHop, int32(i))
	}
}

// Unbind drops v's references to the finished trial's simulator, rng,
// graph and memory, keeping only its own grown storage for the next
// Rebind.
func (v *Visibility) Unbind() {
	v.s, v.rng, v.g, v.mem = nil, nil, nil, nil
}

// Sync floods every message appended to the memory since the last call.
// Call it after each append site; announcing is idempotent and cheap when
// nothing is new. The author's own arrival is immediate (a node sees its
// own append the moment it lands).
func (v *Visibility) Sync() {
	n := v.mem.Len()
	if n == v.announced {
		return
	}
	now := float64(v.s.Now())
	words := (n + 63) / 64
	for id := range v.arrived {
		for len(v.arrived[id]) < words {
			v.arrived[id] = append(v.arrived[id], 0)
		}
	}
	for i := v.announced; i < n; i++ {
		v.announce = append(v.announce, now)
		author := int(v.mem.Message(appendmem.MsgID(i)).Author)
		// The author's own arrival: immediate, lag-free, no inbound link.
		bitSet(v.arrived[author], i)
		v.advancePrefix(author)
		fl := v.openFlood(int32(i))
		v.relay(fl, author)
		v.settle(fl)
	}
	v.announced = n
}

// advancePrefix extends node's maximal fully-arrived prefix past any
// newly filled gaps.
func (v *Visibility) advancePrefix(node int) {
	for v.prefix[node] < len(v.announce) && bitGet(v.arrived[node], v.prefix[node]) {
		v.prefix[node]++
	}
}

// openFlood takes a free flood record (all eta unset) for msg.
func (v *Visibility) openFlood(msg int32) int32 {
	var fl int32
	if k := len(v.freeFlood); k > 0 {
		fl = v.freeFlood[k-1]
		v.freeFlood = v.freeFlood[:k-1]
	} else {
		fl = int32(len(v.floods))
		v.floods = append(v.floods, flood{eta: make([]sim.Time, len(v.arrived))})
	}
	v.floods[fl].msg = msg
	return fl
}

// settle recycles flood record fl once none of its hops is pending: no
// hop of the message can be scheduled again, because relays happen only
// when one fires.
func (v *Visibility) settle(fl int32) {
	f := &v.floods[fl]
	if f.pending == 0 {
		clear(f.eta)
		v.freeFlood = append(v.freeFlood, fl)
	}
}

// relay sends flood fl on from node to every neighbor it has not reached.
// The inbound neighbor needs no special case: the message has arrived
// there.
func (v *Visibility) relay(fl int32, node int) {
	if v.g.IsComplete() {
		v.g.Neighbors(node, func(j int, lat float64) bool {
			v.send(fl, j, lat)
			return true
		})
		return
	}
	ts, lats := v.g.Adj(node)
	for k, j := range ts {
		v.send(fl, int(j), lats[k])
	}
}

// send draws the delay of one transmission of flood fl to node j and
// schedules its arrival, unless the message is already at j or a pending
// hop reaches j no later: on an equal time the pending hop fires first,
// having been scheduled first.
func (v *Visibility) send(fl int32, j int, lat float64) {
	f := &v.floods[fl]
	if bitGet(v.arrived[j], int(f.msg)) {
		return // already there; skip the redundant transmission
	}
	delay := sim.Time(v.dm.Sample(lat, v.rng))
	if delay <= 0 {
		delay = v.eps
	}
	at := v.s.Now() + delay
	if eta := f.eta[j]; eta != 0 && at >= eta {
		return
	}
	f.eta[j] = at
	f.pending++
	h := v.takeHop()
	v.hops[h].fl, v.hops[h].to = fl, int32(j)
	v.s.At(at, v.hops[h].fire)
}

// takeHop returns a free hop slot, binding a new slot's event on first
// use.
func (v *Visibility) takeHop() int32 {
	if k := len(v.freeHop); k > 0 {
		h := v.freeHop[k-1]
		v.freeHop = v.freeHop[:k-1]
		return h
	}
	h := int32(len(v.hops))
	v.hops = append(v.hops, hop{fire: func() { v.arrive(h) }})
	return h
}

// arrive fires hop slot h: the first arrival of its message at its node
// is delivered and relayed on, a later one is dropped.
func (v *Visibility) arrive(h int32) {
	fl, node := v.hops[h].fl, int(v.hops[h].to)
	v.freeHop = append(v.freeHop, h)
	msg := int(v.floods[fl].msg)
	if !bitGet(v.arrived[node], msg) {
		bitSet(v.arrived[node], msg)
		v.advancePrefix(node)
		v.totalLag += float64(v.s.Now()) - v.announce[msg]
		v.deliveries++
		v.relay(fl, node)
	}
	v.floods[fl].pending--
	v.settle(fl)
}

// Prefix returns the length of node id's maximal fully-arrived prefix.
func (v *Visibility) Prefix(id appendmem.NodeID) int { return v.prefix[id] }

// ViewFor returns node id's current view: the maximal prefix of the
// global memory all of whose messages have reached the node.
func (v *Visibility) ViewFor(id appendmem.NodeID) appendmem.View {
	return v.mem.ViewAt(v.prefix[id])
}

// MeanLag returns the mean propagation lag over all non-author arrivals
// so far (0 when nothing has propagated yet). Messages still in flight at
// the end of a run are not counted.
func (v *Visibility) MeanLag() float64 {
	if v.deliveries == 0 {
		return 0
	}
	return v.totalLag / float64(v.deliveries)
}

// Deliveries returns the number of non-author arrivals accounted so far.
func (v *Visibility) Deliveries() int { return v.deliveries }

func bitGet(b []uint64, i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func bitSet(b []uint64, i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
