// Package msgnet is the message-passing substrate for Section 4 of the
// paper: point-to-point channels with bounded random delays, broadcast,
// per-node ed25519 signing capabilities, and message/byte accounting.
//
// The paper's simulation of the append memory (Algorithms 2 and 3) assumes
// nodes "sign their messages and ... these signatures cannot be forged".
// We make that assumption real rather than axiomatic: every node owns an
// ed25519 key pair (crypto/ed25519, stdlib), the Signer capability is
// handed only to its node — Byzantine nodes hold only their own keys — and
// verification actually runs on every record, so the resilience argument
// of Lemmas 4.1/4.2 is exercised end to end.
//
// Delivery is the paper's Δ-bounded assumption made literal: every pair
// of nodes is directly connected and every message is delayed by a
// uniform draw from (0, MaxDelay], independent of who talks to whom.
// Dropping (for failure injection) is per-receiver via a pluggable filter.
// The network never corrupts or duplicates; integrity attacks are modelled
// at the payload layer where the signatures live.
package msgnet

import (
	"crypto/ed25519"
	"encoding/binary"
	"fmt"

	"repro/internal/appendmem"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Envelope is one message in flight.
type Envelope struct {
	From, To appendmem.NodeID
	Kind     string
	Body     []byte
}

// Handler receives delivered envelopes.
type Handler func(Envelope)

// Stats aggregates traffic accounting: Messages counts sends, a broadcast
// counting one per receiver.
type Stats struct {
	Messages int
	Bytes    int
	ByKind   map[string]int
}

// Network is a simulated message-passing network for n nodes.
type Network struct {
	s        *sim.Sim
	rng      *xrand.PCG
	n        int
	maxDelay float64
	handlers []Handler
	signers  []*Signer
	pubs     []ed25519.PublicKey
	drop     func(Envelope) bool
	stats    Stats

	// In-flight envelopes, a value-typed min-heap ordered by (at, seq) —
	// the same key the simulator fires by, so the single bound deliverNext
	// callback (allocated once) always pops the envelope whose event is
	// firing, instead of each Send allocating a capturing closure.
	pending []delivery
	dseq    uint64
	tick    func()
}

// delivery is one in-flight envelope.
type delivery struct {
	at  sim.Time
	seq uint64
	env Envelope
}

// before orders deliveries exactly like the simulator orders their events:
// scheduled time, then scheduling order.
func (d *delivery) before(o *delivery) bool {
	if d.at != o.at {
		return d.at < o.at
	}
	return d.seq < o.seq
}

// New creates a network of n nodes on simulator s with delivery delays
// uniform in (0, maxDelay], any pair directly connected. Keys are derived
// deterministically from rng first; after that the network draws one
// Float64 per send, after the drop filter.
func New(s *sim.Sim, rng *xrand.PCG, n int, maxDelay float64) *Network {
	if n <= 0 || maxDelay <= 0 {
		panic("msgnet: invalid parameters")
	}
	nw := &Network{
		s:        s,
		rng:      rng,
		n:        n,
		maxDelay: maxDelay,
		handlers: make([]Handler, n),
		signers:  make([]*Signer, n),
		pubs:     make([]ed25519.PublicKey, n),
	}
	nw.stats.ByKind = make(map[string]int)
	for i := 0; i < n; i++ {
		seed := make([]byte, ed25519.SeedSize)
		for j := 0; j < len(seed); j += 8 {
			binary.LittleEndian.PutUint64(seed[j:], rng.Uint64())
		}
		priv := ed25519.NewKeyFromSeed(seed)
		nw.signers[i] = &Signer{id: appendmem.NodeID(i), priv: priv}
		nw.pubs[i] = priv.Public().(ed25519.PublicKey)
	}
	return nw
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// Register installs the delivery handler for node id. Must be called
// before the node can receive.
func (nw *Network) Register(id appendmem.NodeID, h Handler) { nw.handlers[id] = h }

// SetDrop installs a message filter: envelopes for which drop returns true
// are silently discarded (after being counted as sent). Used for failure
// injection. A nil filter delivers everything.
func (nw *Network) SetDrop(drop func(Envelope) bool) { nw.drop = drop }

// Signer returns node id's signing capability. Handing it only to the node
// itself is what makes "Byzantine nodes cannot forge the signatures of the
// correct nodes" structural.
func (nw *Network) Signer(id appendmem.NodeID) *Signer { return nw.signers[id] }

// PublicKey returns node id's verification key (public information).
func (nw *Network) PublicKey(id appendmem.NodeID) ed25519.PublicKey { return nw.pubs[id] }

// Verify checks sig over data against node id's public key.
func (nw *Network) Verify(id appendmem.NodeID, data, sig []byte) bool {
	if id < 0 || int(id) >= nw.n {
		return false
	}
	return ed25519.Verify(nw.pubs[id], data, sig)
}

// Stats returns a copy of the traffic counters.
func (nw *Network) Stats() Stats {
	s := nw.stats
	s.ByKind = make(map[string]int, len(nw.stats.ByKind))
	for k, v := range nw.stats.ByKind {
		s.ByKind[k] = v
	}
	return s
}

// Send schedules delivery of one message after a uniform delay in
// (0, maxDelay]. Sending to self is delivered like any other message (with
// delay). Dropped messages still count as sent.
func (nw *Network) Send(from, to appendmem.NodeID, kind string, body []byte) {
	if to < 0 || int(to) >= nw.n {
		panic(fmt.Sprintf("msgnet: Send to %d out of range", to))
	}
	env := Envelope{From: from, To: to, Kind: kind, Body: append([]byte(nil), body...)}
	nw.stats.Messages++
	nw.stats.Bytes += len(env.Body)
	nw.stats.ByKind[env.Kind]++
	if nw.drop != nil && nw.drop(env) {
		return
	}
	delay := sim.Time(nw.rng.Float64() * nw.maxDelay)
	if delay == 0 {
		delay = sim.Time(nw.maxDelay / 1e9)
	}
	nw.deliverAfter(delay, env)
}

// deliverAfter schedules env for handler delivery after delay, preserving
// the (time, scheduling-order) invariant of the pending heap.
func (nw *Network) deliverAfter(delay sim.Time, env Envelope) {
	if nw.tick == nil {
		nw.tick = nw.deliverNext
	}
	nw.dseq++
	nw.push(delivery{at: nw.s.Now() + delay, seq: nw.dseq, env: env})
	nw.s.After(delay, nw.tick)
}

// push adds d to the pending min-heap.
func (nw *Network) push(d delivery) {
	h := append(nw.pending, d)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !d.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = d
	nw.pending = h
}

// pop removes and returns the minimum pending delivery.
func (nw *Network) pop() delivery {
	h := nw.pending
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = delivery{} // release the body
	h = h[:n]
	nw.pending = h
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && h[r].before(&h[l]) {
				m = r
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	return min
}

// deliverNext fires the earliest in-flight envelope. The simulator fires
// events in (time, scheduling-order) — the exact order of the pending
// heap — so the popped envelope is always the one this event was
// scheduled for.
func (nw *Network) deliverNext() {
	d := nw.pop()
	if h := nw.handlers[d.env.To]; h != nil {
		h(d.env)
	}
}

// Broadcast sends n independent point-to-point messages, one to every
// node including the sender (the paper's broadcast includes the local
// append/ack path).
func (nw *Network) Broadcast(from appendmem.NodeID, kind string, body []byte) {
	for i := 0; i < nw.n; i++ {
		nw.Send(from, appendmem.NodeID(i), kind, body)
	}
}

// Signer signs on behalf of one node.
type Signer struct {
	id   appendmem.NodeID
	priv ed25519.PrivateKey
}

// ID returns the owning node.
func (s *Signer) ID() appendmem.NodeID { return s.id }

// Sign returns the ed25519 signature of data.
func (s *Signer) Sign(data []byte) []byte { return ed25519.Sign(s.priv, data) }
