// Package runner holds the shared trial fan-out used by every experiment:
// deterministic seed-indexed repetitions, plus streaming reductions
// (CountTrials, RateTrials, MeanTrials) and the small aggregation helpers
// their tables are built from.
//
// Each fan-out brings its own executors: the calling goroutine plus
// min(workers or GOMAXPROCS, chunks)−1 helper goroutines claim contiguous
// seed ranges (chunks) from the fan-out's atomic cursor, and the call
// returns once the helpers have joined. Go's scheduler interleaves
// concurrent fan-outs (experiments.RunStream) and nested ones (a trial
// function that itself calls Trials); the caller always runs chunks of
// its own fan-out, so nesting cannot deadlock.
//
// Determinism is unaffected: trial i always runs with seed base+i and
// lands in slot i (or is folded in seed order — see TrialsReduce), so the
// output is independent of the worker count, chunk size and GOMAXPROCS.
package runner

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Trials runs f for seeds base..base+n-1 and returns the results in seed
// order. f must be a pure function of its seed, so the output is
// independent of the worker count. workers > 0 caps the executors of
// this fan-out, the calling goroutine included (1 runs every trial on
// the caller); <= 0 means GOMAXPROCS.
//
// Prefer TrialsReduce (or CountTrials/RateTrials/MeanTrials) when the
// caller only folds the results: Trials materializes all n of them.
//
// If f panics, the fan-out still completes and Trials re-panics on the
// caller with a *TrialPanic annotating the trial index.
func Trials[T any](n int, base uint64, workers int, f func(seed uint64) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	j := newJob(n, base)
	j.dispatch(workers, func(lo, hi int) {
		i := lo
		defer j.settle(&i, hi)
		for ; i < hi; i++ {
			out[i] = f(base + uint64(i))
		}
	}, nil)
	return out
}

// TrialsReduce runs f for seeds base..base+n-1 and folds the results into
// acc strictly in seed order — the fold is bit-identical to folding the
// slice Trials would return, including for non-associative accumulation
// like float sums. Executors buffer only their current chunk of results
// and the calling goroutine folds chunks as their turn comes, so memory
// stays O(chunk·workers) instead of O(n): huge -trials runs stop
// materializing []T.
//
// If f panics, the panicked chunk is never folded, the fan-out still
// completes, and TrialsReduce re-panics on the caller with a *TrialPanic
// annotating the trial index.
func TrialsReduce[T, A any](n int, base uint64, workers int, acc A, f func(seed uint64) T, fold func(A, T) A) A {
	if n <= 0 {
		return acc
	}
	j := newJob(n, base)
	bufs := make([][]T, j.chunks)
	ready := make([]atomic.Bool, j.chunks)
	folded := 0
	foldReady := func() {
		for folded < j.chunks && ready[folded].Load() {
			for _, v := range bufs[folded] {
				acc = fold(acc, v)
			}
			bufs[folded] = nil
			folded++
		}
	}
	j.dispatch(workers, func(lo, hi int) {
		buf := make([]T, hi-lo)
		i := lo
		defer j.settle(&i, hi)
		for ; i < hi; i++ {
			buf[i-lo] = f(base + uint64(i))
		}
		c := lo / j.chunk
		bufs[c] = buf
		ready[c].Store(true)
	}, foldReady)
	foldReady()
	return acc
}

// job is one fan-out: n trials claimed in chunks from an atomic cursor.
type job struct {
	n, chunk, chunks int
	base             uint64
	next             atomic.Int64 // next unclaimed trial index
	helpers          sync.WaitGroup

	mu  sync.Mutex
	pan *TrialPanic // lowest-index trial panic, re-raised on the caller
}

func newJob(n int, base uint64) *job {
	chunk := chunkFor(n)
	return &job{n: n, chunk: chunk, chunks: (n + chunk - 1) / chunk, base: base}
}

// chunkFor sizes dispatch chunks: roughly four claims per executor keeps
// the atomic-add traffic negligible while still load-balancing uneven
// trial costs, and the cap bounds a TrialsReduce chunk buffer.
func chunkFor(n int) int {
	return min(max(n/(4*runtime.GOMAXPROCS(0)), 1), 1024)
}

// claim hands out the next unclaimed chunk [lo, hi); ok is false once
// every chunk is claimed.
func (j *job) claim() (lo, hi int, ok bool) {
	lo = int(j.next.Add(int64(j.chunk))) - j.chunk
	if lo >= j.n {
		return 0, 0, false
	}
	return lo, min(lo+j.chunk, j.n), true
}

// dispatch runs every chunk of the job through run, on the calling
// goroutine and min(workers or GOMAXPROCS, chunks)−1 helper goroutines,
// each claiming chunks until none remain. after, if not nil, runs on the
// caller after each chunk the caller ran. dispatch returns once every
// helper has finished, re-panicking with the recorded TrialPanic if a
// trial panicked.
func (j *job) dispatch(workers int, run func(lo, hi int), after func()) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for h := min(workers, j.chunks) - 1; h > 0; h-- {
		j.helpers.Add(1)
		go func() {
			defer j.helpers.Done()
			for lo, hi, ok := j.claim(); ok; lo, hi, ok = j.claim() {
				run(lo, hi)
			}
		}()
	}
	for lo, hi, ok := j.claim(); ok; lo, hi, ok = j.claim() {
		run(lo, hi)
		if after != nil {
			after()
		}
	}
	j.helpers.Wait()
	if j.pan != nil {
		panic(j.pan)
	}
}

// settle is deferred by every chunk runner, which advances *at past each
// trial it completes. If the chunk stopped short of hi, trial *at
// panicked: settle records it instead of unwinding the executor, so the
// fan-out still completes and dispatch re-panics on the caller. Of
// several, the lowest trial index wins, so the re-raised panic does not
// depend on which executor ran what.
func (j *job) settle(at *int, hi int) {
	if *at == hi {
		return
	}
	p := &TrialPanic{Trial: *at, Seed: j.base + uint64(*at), Value: recover(), Stack: debug.Stack()}
	j.mu.Lock()
	if j.pan == nil || p.Trial < j.pan.Trial {
		j.pan = p
	}
	j.mu.Unlock()
}

// TrialPanic is the value a Trials/TrialsReduce fan-out re-panics with
// when a trial function panicked: the original panic value annotated
// with the trial index, its seed and the stack of the executor it
// panicked on, which may be a helper goroutine. Without it the panic
// would tear down the process from a bare helper goroutine, with no way
// to tell which trial died.
type TrialPanic struct {
	Trial int    // trial index within the fan-out (0-based)
	Seed  uint64 // base + Trial
	Value any    // the original panic value
	Stack []byte // stack of the panicking executor at recover time
}

func (p *TrialPanic) Error() string {
	return fmt.Sprintf("runner: trial %d (seed %#x) panicked: %v", p.Trial, p.Seed, p.Value)
}

func (p *TrialPanic) String() string {
	return fmt.Sprintf("%s\nworker stack:\n%s", p.Error(), p.Stack)
}

// Unwrap exposes an error panic value to errors.Is/As through the wrapper.
func (p *TrialPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// CountTrials runs f for seeds base..base+n-1 and returns how many trials
// reported true, without materializing the per-trial results.
func CountTrials(n int, base uint64, workers int, f func(seed uint64) bool) int {
	return TrialsReduce(n, base, workers, 0, f, func(c int, ok bool) int {
		if ok {
			c++
		}
		return c
	})
}

// RateTrials runs f for seeds base..base+n-1 and returns successes/n as a
// Ratio — Rate(CountTrials(...), n).
func RateTrials(n int, base uint64, workers int, f func(seed uint64) bool) Ratio {
	return Rate(CountTrials(n, base, workers, f), n)
}

// MeanTrials runs f for seeds base..base+n-1 and returns the mean of its
// results, summed in seed order (bit-identical to stats.Mean over the
// slice Trials would return). n <= 0 yields 0.
func MeanTrials(n int, base uint64, workers int, f func(seed uint64) float64) float64 {
	if n <= 0 {
		return 0
	}
	sum := TrialsReduce(n, base, workers, 0.0, f, func(a, x float64) float64 { return a + x })
	return sum / float64(n)
}

// Pool recycles per-trial state (a simulator, scratch slices) across
// fan-outs, so trials reuse warmed-up capacity instead of re-growing it
// and fighting the GC. Unlike sync.Pool it is never drained by a GC
// cycle: it retains up to one state per executor of a full-width fan-out
// (GOMAXPROCS, plus headroom for concurrent and nested fan-outs) in a
// fixed LIFO slot array, so at steady state every concurrent executor
// gets the warmest retained state back. When all slots are empty Get
// falls back to newFn; when all are full Put drops the state for the GC
// — the retained set never exceeds what the executors can keep busy. Callers must
// fully re-initialize whatever state they read — a pooled value carries
// only capacity, never content.
type Pool[S any] struct {
	newFn func() S
	mu    sync.Mutex
	slots []S // lazily sized to GOMAXPROCS+8 on first Put
}

// NewPool returns a pool producing fresh states with newFn when empty. S
// should be a pointer type; non-pointer states would be copied on every
// Get/Put.
func NewPool[S any](newFn func() S) *Pool[S] {
	return &Pool[S]{newFn: newFn}
}

// Get returns the most recently retained state, or a fresh one.
func (p *Pool[S]) Get() S {
	p.mu.Lock()
	if n := len(p.slots); n > 0 {
		s := p.slots[n-1]
		var zero S
		p.slots[n-1] = zero // drop the reference so the slot does not pin it
		p.slots = p.slots[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return p.newFn()
}

// Put retains a state for the next Get. The caller must not use it
// afterwards.
func (p *Pool[S]) Put(s S) {
	p.mu.Lock()
	if p.slots == nil {
		p.slots = make([]S, 0, runtime.GOMAXPROCS(0)+8)
	}
	if len(p.slots) < cap(p.slots) {
		p.slots = append(p.slots, s)
	}
	p.mu.Unlock()
}

// Ratio is a successes/trials pair kept in exact integer form; tables
// format it as "0.85 (17/20)" and checks read it as Num/Den.
type Ratio struct {
	Num int `json:"num"`
	Den int `json:"den"`
}

// Rate pairs successes with the trial count as a Ratio.
func Rate(successes, trials int) Ratio {
	return Ratio{Num: successes, Den: trials}
}

// Value returns Num/Den, or 0 for an empty ratio.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}
