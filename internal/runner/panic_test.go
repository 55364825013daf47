package runner

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// catchTrialPanic runs fn and returns the *TrialPanic it panics with.
func catchTrialPanic(t *testing.T, fn func()) (tp *TrialPanic) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("fan-out did not panic")
		}
		var ok bool
		tp, ok = r.(*TrialPanic)
		if !ok {
			t.Fatalf("panic value is %T (%v), want *TrialPanic", r, r)
		}
	}()
	fn()
	return nil
}

// waitGoroutines fails the test unless runtime.NumGoroutine() drops back
// to want. A helper that has signalled its fan-out's WaitGroup may not
// have exited yet when the fan-out returns, so it polls briefly.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the fan-out returned, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// A panicking trial must not crash the process: TrialsReduce re-panics
// on the caller with the trial index and seed annotated, at every worker
// count — workers 1 runs every trial on the caller, and the panic is
// annotated there too.
func TestTrialsReducePanicAnnotated(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 0} {
		tp := catchTrialPanic(t, func() {
			TrialsReduce(64, 100, workers, 0, func(seed uint64) int {
				if seed == 107 {
					panic(boom)
				}
				return 1
			}, func(a, x int) int { return a + x })
		})
		if tp.Trial != 7 || tp.Seed != 107 {
			t.Fatalf("workers=%d: panic annotated trial=%d seed=%d, want trial=7 seed=107", workers, tp.Trial, tp.Seed)
		}
		if !errors.Is(tp, boom) {
			t.Fatalf("workers=%d: TrialPanic does not unwrap to the original error: %v", workers, tp)
		}
		if !strings.Contains(tp.Error(), "trial 7") {
			t.Fatalf("workers=%d: Error() does not name the trial: %q", workers, tp.Error())
		}
		if len(tp.Stack) == 0 {
			t.Fatalf("workers=%d: no executor stack captured", workers)
		}
	}
}

// Multiple panicking trials re-raise the lowest trial index, so the
// failure is deterministic across worker counts and steal orders.
func TestTrialsReducePanicLowestIndexWins(t *testing.T) {
	tp := catchTrialPanic(t, func() {
		TrialsReduce(256, 0, 0, 0, func(seed uint64) int {
			if seed%3 == 2 { // trials 2, 5, 8, ...
				panic("deterministic failure")
			}
			return 1
		}, func(a, x int) int { return a + x })
	})
	if tp.Trial != 2 {
		t.Fatalf("re-panicked trial %d, want the lowest panicking index 2", tp.Trial)
	}
}

// Trials (the materializing form) gets the same annotation, single
// trials and the caller-only workers 1 included.
func TestTrialsPanicAnnotated(t *testing.T) {
	for _, c := range []struct{ n, workers, trial int }{{64, 0, 13}, {64, 1, 13}, {1, 0, 0}} {
		tp := catchTrialPanic(t, func() {
			Trials(c.n, 0, c.workers, func(seed uint64) int {
				if seed == uint64(c.trial) {
					panic("boom")
				}
				return int(seed)
			})
		})
		if tp.Trial != c.trial || tp.Seed != uint64(c.trial) {
			t.Fatalf("n=%d workers=%d: panic annotated trial=%d seed=%d, want %d", c.n, c.workers, tp.Trial, tp.Seed, c.trial)
		}
	}
}

// Fan-outs stay healthy after a recovered trial panic: later fan-outs run
// to completion, and every fan-out, panicked or not, leaves no helper
// goroutine behind.
func TestPoolSurvivesTrialPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		catchTrialPanic(t, func() {
			TrialsReduce(128, 0, 4, 0, func(seed uint64) int {
				if seed == 64 {
					panic("boom")
				}
				return 1
			}, func(a, x int) int { return a + x })
		})
		waitGoroutines(t, before)
		got := CountTrials(512, 0, 0, func(seed uint64) bool { return seed%2 == 0 })
		if got != 256 {
			t.Fatalf("round %d: fan-out broken after panic: CountTrials = %d, want 256", round, got)
		}
		waitGoroutines(t, before)
	}
}
