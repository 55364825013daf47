package runner

import (
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func TestTrialsOrderAndDeterminism(t *testing.T) {
	f := func(seed uint64) uint64 { return seed * 3 }
	out := Trials(20, 100, 0, f)
	for i, v := range out {
		if v != (100+uint64(i))*3 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestTrialsWorkerCountInvariance(t *testing.T) {
	f := func(seed uint64) uint64 { return seed*seed + 7 }
	want := Trials(33, 5, 1, f)
	for _, workers := range []int{2, 4, 16, 100, -3} {
		got := Trials(33, 5, workers, f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d changed the output", workers)
		}
	}
}

func TestTrialsZeroAndOne(t *testing.T) {
	for _, n := range []int{0, -5} {
		if out := Trials(n, 1, 0, func(seed uint64) int { return 1 }); len(out) != 0 {
			t.Fatalf("n=%d returned %v", n, out)
		}
	}
	if out := Trials(1, 9, 4, func(seed uint64) uint64 { return seed }); len(out) != 1 || out[0] != 9 {
		t.Fatalf("n=1 returned %v", out)
	}
}

// TestTrialsSeedOrderProperty is the fan-out contract as a property: for
// every size, results are exactly [f(base), f(base+1), ...] regardless of
// the worker count — 1 (inline), 2, 7 and NumCPU all produce the same
// seed-ordered slice.
func TestTrialsSeedOrderProperty(t *testing.T) {
	f := func(seed uint64) uint64 { return seed ^ (seed << 7) }
	for _, n := range []int{1, 2, 3, 5, 16, 64, 257, 1000} {
		want := make([]uint64, n)
		for i := range want {
			want[i] = f(42 + uint64(i))
		}
		for _, workers := range []int{1, 2, 7, runtime.NumCPU()} {
			got := Trials(n, 42, workers, f)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d workers=%d: results not seed-ordered", n, workers)
			}
		}
	}
}

// TestTrialsReduceFoldOrder uses a deliberately non-commutative fold (it
// records the order results arrive) to pin the strict seed-order folding
// contract at every worker count.
func TestTrialsReduceFoldOrder(t *testing.T) {
	for _, n := range []int{0, 1, 5, 64, 257} {
		for _, workers := range []int{1, 2, 7, runtime.NumCPU(), 0} {
			got := TrialsReduce(n, 10, workers, []uint64(nil),
				func(seed uint64) uint64 { return seed },
				func(a []uint64, v uint64) []uint64 { return append(a, v) })
			if len(got) != n {
				t.Fatalf("n=%d workers=%d: folded %d results", n, workers, len(got))
			}
			for i, v := range got {
				if v != 10+uint64(i) {
					t.Fatalf("n=%d workers=%d: fold order broken at %d: %v", n, workers, i, got)
				}
			}
		}
	}
}

// TestTrialsReduceFloatBitIdentical checks the reduce path against the
// materialize-then-fold path on a float sum, where association changes
// low bits: strict seed-order folding must make them equal exactly.
func TestTrialsReduceFloatBitIdentical(t *testing.T) {
	f := func(seed uint64) float64 { return math.Sqrt(float64(seed)) * 0.1 }
	n := 1000
	want := 0.0
	for _, v := range Trials(n, 3, 1, f) {
		want += v
	}
	for _, workers := range []int{2, 7, 0} {
		got := TrialsReduce(n, 3, workers, 0.0, f, func(a, x float64) float64 { return a + x })
		if got != want {
			t.Fatalf("workers=%d: float fold differs in low bits: %v != %v", workers, got, want)
		}
	}
	if m := MeanTrials(n, 3, 0, f); m != want/float64(n) {
		t.Fatalf("MeanTrials = %v, want %v", m, want/float64(n))
	}
}

func TestCountAndRateTrials(t *testing.T) {
	even := func(seed uint64) bool { return seed%2 == 0 }
	for _, workers := range []int{1, 3, 0} {
		if got := CountTrials(100, 0, workers, even); got != 50 {
			t.Fatalf("workers=%d: CountTrials = %d", workers, got)
		}
	}
	if r := RateTrials(20, 0, 0, even); r != Rate(10, 20) {
		t.Fatalf("RateTrials = %+v", r)
	}
	if got := CountTrials(0, 0, 0, even); got != 0 {
		t.Fatalf("CountTrials(0) = %d", got)
	}
	if m := MeanTrials(0, 0, 0, func(seed uint64) float64 { return 1 }); m != 0 {
		t.Fatalf("MeanTrials(0) = %v", m)
	}
}

// TestConcurrentFanOuts submits many fan-outs from independent goroutines
// — the cross-experiment shape — and checks every one merges in seed
// order while their executors share the CPUs.
func TestConcurrentFanOuts(t *testing.T) {
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := uint64(g * 1000)
			out := Trials(200, base, 0, func(seed uint64) uint64 { return seed * 2 })
			for i, v := range out {
				if v != (base+uint64(i))*2 {
					errs <- "fan-out merged out of order"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestNestedTrials pins the no-deadlock property: a trial function that
// itself fans out makes progress because the caller of every fan-out
// runs chunks of it, whatever the other executors are doing.
func TestNestedTrials(t *testing.T) {
	out := Trials(8, 0, 0, func(seed uint64) int {
		inner := Trials(16, seed*100, 0, func(s uint64) int { return int(s) })
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum
	})
	for i, got := range out {
		base := i * 100
		want := 16*base + 120 // sum of base..base+15
		if got != want {
			t.Fatalf("nested out[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestPoolRetainsAcrossGC(t *testing.T) {
	type state struct{ id int }
	made := 0
	p := NewPool(func() *state { made++; return &state{id: made} })
	s := p.Get()
	p.Put(s)
	runtime.GC()
	runtime.GC()
	if got := p.Get(); got != s {
		t.Fatalf("pool state not retained across GC: got %p, want %p", got, s)
	}
	if made != 1 {
		t.Fatalf("pool created %d states, want 1", made)
	}
}

func TestPoolBoundedRetention(t *testing.T) {
	p := NewPool(func() *int { v := 0; return &v })
	bound := runtime.GOMAXPROCS(0) + 8
	for i := 0; i < bound+10; i++ {
		v := i
		p.Put(&v)
	}
	if len(p.slots) != bound {
		t.Fatalf("pool retained %d states, want cap %d", len(p.slots), bound)
	}
	// LIFO: the warmest state comes back first.
	last := p.Get()
	if *last != bound-1 {
		t.Fatalf("pool Get returned %d, want most recent retained %d", *last, bound-1)
	}
}

func TestRatioValue(t *testing.T) {
	if v := Rate(17, 20).Value(); v != 0.85 {
		t.Fatalf("Rate(17,20).Value() = %v", v)
	}
	if v := Rate(0, 0).Value(); v != 0 {
		t.Fatalf("empty ratio value = %v", v)
	}
}
