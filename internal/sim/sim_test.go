package sim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/xrand"
)

func TestEmptyRun(t *testing.T) {
	s := New()
	if n := s.Run(); n != 0 {
		t.Fatalf("Run on empty sim fired %d events", n)
	}
	if s.Now() != 0 {
		t.Fatalf("clock moved: %v", s.Now())
	}
}

func TestEventOrder(t *testing.T) {
	s := New()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	for i, v := range []int{1, 2, 3} {
		if order[i] != v {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New()
	var order []string
	s.At(5, func() { order = append(order, "a") })
	s.At(5, func() { order = append(order, "b") })
	s.At(5, func() { order = append(order, "c") })
	s.Run()
	if order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("ties broken unstably: %v", order)
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	var seen []Time
	s.At(1.5, func() { seen = append(seen, s.Now()) })
	s.At(2.5, func() { seen = append(seen, s.Now()) })
	s.Run()
	if seen[0] != 1.5 || seen[1] != 2.5 {
		t.Fatalf("Now() inside events = %v", seen)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.Run()
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if s.Now() != 10 {
		t.Fatalf("final time = %v", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(1, func() {})
	})
	s.Run()
}

func TestStop(t *testing.T) {
	s := New()
	fired := 0
	s.At(1, func() { fired++; s.Stop() })
	s.At(2, func() { fired++ })
	s.Run()
	if fired != 1 {
		t.Fatalf("fired = %d after Stop", fired)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() false")
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	n := s.RunUntil(3)
	if n != 3 || len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", n)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want 3", s.Now())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatal("remaining events lost")
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(7)
	if s.Now() != 7 {
		t.Fatalf("idle clock = %v, want 7", s.Now())
	}
}

func TestDeterministicUnderLoad(t *testing.T) {
	run := func() []int {
		s := New()
		rng := xrand.New(42, 42)
		var order []int
		for i := 0; i < 1000; i++ {
			i := i
			s.At(Time(rng.Intn(100)), func() { order = append(order, i) })
		}
		s.Run()
		return order
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d", i)
		}
	}
}

func TestMonotoneClock(t *testing.T) {
	s := New()
	rng := xrand.New(3, 3)
	last := Time(-1)
	ok := true
	for i := 0; i < 500; i++ {
		s.At(Time(rng.Float64()*50), func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !ok {
		t.Fatal("clock went backwards")
	}
}

// mustPanic fails the test unless f panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestAtNaNPanics pins the rejection of NaN times. A NaN compares false
// against everything, so it used to pass the past-time check and corrupt
// the order: scheduling 3, NaN, 1, 2 and 0.5 fired 1, 0.5, 2, 3, NaN.
func TestAtNaNPanics(t *testing.T) {
	s := New()
	var fired []Time
	for _, at := range []Time{3, 1, 2, 0.5} {
		s.At(at, func() { fired = append(fired, s.Now()) })
		if at == 3 {
			mustPanic(t, "At(NaN)", func() { s.At(Time(math.NaN()), func() {}) })
		}
	}
	mustPanic(t, "After(NaN)", func() { s.After(Time(math.NaN()), func() {}) })
	s.Run()
	if !slices.Equal(fired, []Time{0.5, 1, 2, 3}) {
		t.Fatalf("fired at %v", fired)
	}
}

// TestStartAtRejectsNegativeOrNaN: the queue orders times by their bits,
// which only works for clocks that are never negative.
func TestStartAtRejectsNegativeOrNaN(t *testing.T) {
	for _, at := range []Time{-1, Time(math.Inf(-1)), Time(math.NaN())} {
		mustPanic(t, fmt.Sprintf("StartAt(%v)", at), func() { New().StartAt(at) })
	}
	s := New()
	s.StartAt(Time(math.Copysign(0, -1))) // −0 is zero, not negative
	s.At(0, func() {})
	if s.Run() != 1 {
		t.Fatal("event at zero did not fire after StartAt(−0)")
	}
}
