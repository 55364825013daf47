package sim

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/xrand"
)

// refSim is the reference the queue is checked against: a plain list of
// pending events, fired by a linear scan for the smallest (at, seq).
type refSim struct {
	now    Time
	seq    uint64
	events []refEvent
}

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

func (r *refSim) Now() Time    { return r.now }
func (r *refSim) Pending() int { return len(r.events) }

func (r *refSim) At(t Time, fn func()) {
	r.seq++
	r.events = append(r.events, refEvent{t, r.seq, fn})
}

// min returns the index of the next event, or -1.
func (r *refSim) min() int {
	best := -1
	for i, e := range r.events {
		if b := best; b < 0 || e.at < r.events[b].at || (e.at == r.events[b].at && e.seq < r.events[b].seq) {
			best = i
		}
	}
	return best
}

func (r *refSim) Step() bool {
	i := r.min()
	if i < 0 {
		return false
	}
	e := r.events[i]
	r.events = slices.Delete(r.events, i, i+1)
	r.now = e.at
	e.fn()
	return true
}

func (r *refSim) RunUntil(deadline Time) int {
	fired := 0
	for i := r.min(); i >= 0 && r.events[i].at <= deadline; i = r.min() {
		r.Step()
		fired++
	}
	r.now = max(r.now, deadline)
	return fired
}

// clock is what the schedule drives: the Sim under test or the reference.
type clock interface {
	Now() Time
	Pending() int
	At(Time, func())
	Step() bool
	RunUntil(Time) int
}

// firing is one fired event: its id and the clock's bits when it ran, so
// −0 and +0 are told apart.
type firing struct {
	id  int
	now uint64
}

// schedule is a random workload: each event draws its children and their
// times from a stream of its own id, so two clocks fed the same schedule
// log the same firings while they fire in the same order, and part at the
// first event they order differently.
type schedule struct {
	seed   uint64
	c      clock
	log    []firing
	nextID int
	budget int // events left to create
	times  []Time
}

// pick draws a time at or after now: now itself, a few coarse offsets that
// make equal-time collisions across scheduling instants, a fine offset,
// a time reused from earlier draws, −0 while the clock reads zero, or +Inf.
func (s *schedule) pick(rng *xrand.PCG) Time {
	now := s.c.Now()
	var t Time
	switch rng.Intn(8) {
	case 0:
		t = now
	case 1, 2:
		t = now + Time(rng.Intn(4))*0.25
	case 3:
		t = now + Time(rng.Float64()*3)
	case 4:
		t = now + Time(rng.Intn(3)+1)*1024
	case 5:
		if len(s.times) > 0 {
			if u := s.times[rng.Intn(len(s.times))]; u >= now {
				t = u
				break
			}
		}
		t = now + 1
	case 6:
		t = now
		if now == 0 {
			t = Time(math.Copysign(0, -1))
		}
	default:
		t = now + 0.5
		if rng.Intn(16) == 0 {
			t = Time(math.Inf(1))
		}
	}
	s.times = append(s.times, t)
	return t
}

// spawn schedules a new event, which on firing logs itself and schedules
// up to three children.
func (s *schedule) spawn(rng *xrand.PCG) {
	if s.budget == 0 {
		return
	}
	s.budget--
	id := s.nextID
	s.nextID++
	s.c.At(s.pick(rng), func() {
		s.log = append(s.log, firing{id, math.Float64bits(float64(s.c.Now()))})
		own := xrand.New(s.seed, uint64(id)+1)
		for k := own.Intn(4); k > 0; k-- {
			s.spawn(own)
		}
	})
}

// drive runs one schedule on c: an optional StartAt, a batch of top-level
// events, then alternating RunUntil and Step, and after every RunUntil an
// At between the deadline and the next pending event.
func drive(c clock, seed uint64, startAt func(Time)) []firing {
	s := &schedule{seed: seed, c: c, budget: 600}
	rng := xrand.New(seed, 0)
	if startAt != nil && rng.Intn(2) == 0 {
		startAt([]Time{Time(math.Copysign(0, -1)), 3.75, Time(rng.Float64() * 100)}[rng.Intn(3)])
	}
	for n := 1 + rng.Intn(200); n > 0; n-- {
		s.spawn(rng)
	}
	for c.Pending() > 0 {
		if rng.Intn(3) > 0 {
			c.Step()
			continue
		}
		deadline := c.Now() + Time(rng.Float64()*2)
		c.RunUntil(deadline)
		if next, ok := nextAt(c); ok && next > c.Now() {
			// A time in [deadline, next): below the earliest pending
			// event, which RunUntil must not have settled.
			t := c.Now() + Time(rng.Float64())*(min(next, c.Now()+4)-c.Now())
			s.budget++
			s.times = append(s.times, t)
			id := s.nextID
			s.nextID++
			c.At(t, func() { s.log = append(s.log, firing{id, math.Float64bits(float64(c.Now()))}) })
		}
	}
	return s.log
}

// nextAt reads the earliest pending time of either clock.
func nextAt(c clock) (Time, bool) {
	switch c := c.(type) {
	case *Sim:
		if c.Pending() == 0 {
			return 0, false
		}
		return c.peek(), true
	case *refSim:
		i := c.min()
		if i < 0 {
			return 0, false
		}
		return c.events[i].at, true
	}
	panic("unknown clock")
}

// TestQueueMatchesReference compares the radix queue's fire order, and the
// clock at each firing, with the (at, seq) reference over random schedules.
// One Sim serves every seed through Reset, so stale bucket state would
// show.
func TestQueueMatchesReference(t *testing.T) {
	s := New()
	for seed := uint64(1); seed <= 200; seed++ {
		s.Reset()
		ref := &refSim{}
		want := drive(ref, seed, func(t Time) { ref.now = t })
		got := drive(s, seed, s.StartAt)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: firings diverge at %d of %d/%d", seed, i, len(got), len(want))
		}
		if s.Now() != ref.Now() || s.Pending() != 0 {
			t.Fatalf("seed %d: ended at %v with %d pending, reference at %v", seed, s.Now(), s.Pending(), ref.Now())
		}
	}
}

// TestEqualTimeBurst schedules 100k events at one instant, half before and
// half after the clock moves (so the second half reaches bucket 0 from a
// different last), and checks they fire in scheduling order in near-linear
// time. Scanning for the smallest seq instead took seconds on 40k events.
func TestEqualTimeBurst(t *testing.T) {
	const n = 100_000
	s := New()
	var order []int
	add := func(i int) { s.At(7.5, func() { order = append(order, i) }) }
	for i := 0; i < n/2; i++ {
		add(i)
	}
	s.At(7.25, func() {
		for i := n / 2; i < n; i++ {
			add(i)
		}
	})
	start := time.Now()
	s.Run()
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d equal-time events took %v", n, took)
	}
	if len(order) != n {
		t.Fatalf("fired %d of %d", len(order), n)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("firing %d was event %d", i, id)
		}
	}
}
