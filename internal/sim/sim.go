// Package sim is a deterministic discrete-event simulator: a virtual clock
// and an event queue with stable tie-breaking.
//
// All protocol executions in this repository run inside a Sim. Determinism
// is load-bearing: a run is a pure function of (Config, Seed), so events at
// equal virtual times fire in scheduling order, and nothing in the
// simulator consults wall-clock time or global randomness.
//
// The simulator is single-goroutine by design. Parallelism in this
// repository happens across independent trials (one Sim each), never inside
// a run, which keeps executions replayable and the core free of locks.
//
// The event queue is a monotone radix queue. It relies on two facts: the
// clock never runs backwards (nothing is scheduled before Now), and it is
// never negative, so the IEEE-754 bits of a time, with the sign of −0
// cleared, order like the times themselves. Bucket b ≥ 1 holds the events
// whose key first differs from the last extracted minimum at bit b−1, and
// bucket 0 those equal to it, kept in scheduling order; scheduling is one
// append, and extracting moves each event to a strictly lower bucket. The
// fire order is exactly that of a heap keyed by (time, scheduling order).
// Events are (time, slot) values in per-bucket slices, and their callbacks
// sit in one slot array, so the buckets hold no pointers. Every slice keeps
// its capacity, so once each has grown to its working size, scheduling and
// firing allocate nothing.
package sim

import (
	"math"
	"math/bits"
)

// Time is virtual simulation time. The unit is arbitrary; protocols use Δ
// (the synchrony bound) as their natural scale.
type Time float64

// Sim is a discrete-event simulator. The zero value is ready to use.
type Sim struct {
	now Time
	// last is the key of the last settled minimum; every pending key is
	// >= last, and last <= key(now).
	last uint64
	// buckets[0] holds the pending events whose key equals last, in
	// scheduling order from head on; buckets[b], b >= 1, those whose key
	// first differs from last at bit b−1.
	buckets [65][]event
	head    int    // next event of buckets[0]; 0 whenever buckets[0] is empty
	mask    uint64 // bit b−1 set iff buckets[b] is non-empty
	// fns holds the callbacks of pending events, by slot; free lists the
	// unused slots, so len(fns)−len(free) events are pending. Events carry
	// a slot, not the callback, so the buckets hold no pointers: the GC
	// never scans them and moves need no write barriers.
	fns     []func()
	free    []int32
	stopped bool
}

type event struct {
	at   Time
	slot int32
}

// key maps a non-negative time to bits that order like it. Clearing the
// sign bit folds −0 into +0; negative times never reach the queue.
func key(t Time) uint64 { return math.Float64bits(float64(t)) &^ (1 << 63) }

// lowest returns the lowest non-empty bucket above 0. The mask must be
// non-zero.
func (s *Sim) lowest() int { return bits.TrailingZeros64(s.mask) + 1 }

// minKey returns the smallest key in bucket b.
func (s *Sim) minKey(b int) uint64 {
	m := uint64(math.MaxUint64)
	for _, e := range s.buckets[b] {
		m = min(m, key(e.at))
	}
	return m
}

// settle makes m, the smallest key of bucket b, the new last and
// redistributes bucket b: every event moves to a strictly lower bucket,
// those equal to m into bucket 0. Events in higher buckets keep theirs,
// since m agrees with the old last on every bit above b−1. Bucket 0 must
// be empty.
//
// Bucket 0 comes out in scheduling order without sorting. An event's
// bucket is a function of its key and last, so events with equal keys
// always share a bucket; a move keeps their relative order, and At appends
// the newest event. So within every bucket the events of one key are in
// scheduling order.
func (s *Sim) settle(b int, m uint64) {
	src := s.buckets[b]
	s.last = m
	mask := s.mask &^ (1 << uint(b-1))
	for _, e := range src {
		j := bits.Len64(key(e.at) ^ m)
		s.buckets[j] = append(s.buckets[j], e)
		mask |= 1 << uint(j-1) // j−1 wraps for bucket 0, and the shift yields 0
	}
	s.mask = mask
	s.buckets[b] = src[:0]
}

// next removes and returns the earliest pending event. The queue must be
// non-empty. A lone event in the lowest bucket is the minimum, so it is
// taken without redistributing.
func (s *Sim) next() event {
	if len(s.buckets[0]) == 0 {
		b := s.lowest()
		if src := s.buckets[b]; len(src) == 1 {
			e := src[0]
			s.buckets[b] = src[:0]
			s.mask &^= 1 << uint(b-1)
			s.last = key(e.at)
			return e
		}
		s.settle(b, s.minKey(b))
	}
	b0 := s.buckets[0]
	e := b0[s.head]
	if s.head++; s.head == len(b0) {
		s.buckets[0] = b0[:0]
		s.head = 0
	}
	return e
}

// fire frees e's slot and runs e at its time.
func (s *Sim) fire(e event) {
	fn := s.fns[e.slot]
	s.fns[e.slot] = nil // release the closure
	s.free = append(s.free, e.slot)
	s.now = e.at
	fn()
}

// peek returns the time of the earliest pending event without settling
// it. The queue must be non-empty.
func (s *Sim) peek() Time {
	if len(s.buckets[0]) > 0 {
		return s.buckets[0][s.head].at
	}
	return Time(math.Float64frombits(s.minKey(s.lowest())))
}

// New returns a fresh simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// Reset returns the simulator to its initial state — clock at zero, no
// pending events, not stopped — while retaining every bucket's backing
// array, so a pooled Sim reuses its high-water-mark capacity across trials
// instead of re-growing it. Queued events are zeroed to release their
// closures to the GC.
func (s *Sim) Reset() {
	for b := range s.buckets {
		s.buckets[b] = s.buckets[b][:0]
	}
	clear(s.fns)
	s.fns = s.fns[:0]
	s.free = s.free[:0]
	s.now = 0
	s.last = 0
	s.head = 0
	s.mask = 0
	s.stopped = false
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// StartAt sets the clock of a fresh simulator to t, so a checkpointed run
// resumes mid-stream with every rescheduled event keeping its original
// absolute time. It panics once events are queued or the clock has moved —
// jumping a live simulator would reorder causality — and on a negative or
// NaN t, which the queue cannot order.
func (s *Sim) StartAt(t Time) {
	if s.Pending() > 0 || s.now != 0 {
		panic("sim: StartAt on a running simulator")
	}
	if !(t >= 0) {
		panic("sim: StartAt at a negative or NaN time")
	}
	s.now = t
}

// Pending returns the number of scheduled, not-yet-fired events.
func (s *Sim) Pending() int { return len(s.fns) - len(s.free) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// or at NaN panics — it would silently reorder causality.
func (s *Sim) At(t Time, fn func()) {
	if !(t >= s.now) {
		if t != t {
			panic("sim: scheduling event at NaN")
		}
		panic("sim: scheduling event in the past")
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.fns))
		s.fns = append(s.fns, nil)
	}
	s.fns[slot] = fn
	b := bits.Len64(key(t) ^ s.last)
	s.buckets[b] = append(s.buckets[b], event{at: t, slot: slot})
	if b > 0 {
		s.mask |= 1 << uint(b-1)
	}
}

// After schedules fn to run d time units from now. Negative d panics.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Stop makes the current Run/RunUntil return after the executing event
// completes. Remaining events stay queued.
func (s *Sim) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

// Step fires the earliest pending event and returns true, or returns false
// when the queue is empty.
func (s *Sim) Step() bool {
	if s.Pending() == 0 {
		return false
	}
	s.fire(s.next())
	return true
}

// Run fires events until the queue is empty or Stop is called. It returns
// the number of events fired.
func (s *Sim) Run() int {
	fired := 0
	for !s.stopped && s.Step() {
		fired++
	}
	return fired
}

// RunUntil fires events with time <= deadline (or until Stop), advances the
// clock to the deadline, and returns the number of events fired. Events
// scheduled beyond the deadline stay queued. It peeks at the next minimum
// before settling it: settling one past the deadline would move last
// beyond the clock, and a later At between the deadline and that minimum
// would then land below last.
func (s *Sim) RunUntil(deadline Time) int {
	fired := 0
	for !s.stopped && s.Pending() > 0 && s.peek() <= deadline {
		s.fire(s.next())
		fired++
	}
	if !s.stopped && s.now < deadline {
		s.now = deadline
	}
	return fired
}
