// Package runner holds the shared trial fan-out used by every experiment:
// deterministic seed-indexed repetitions dispatched onto one process-wide
// worker pool (see sched.go), plus streaming reductions (CountTrials,
// RateTrials, MeanTrials) and the small aggregation helpers their tables
// are built from.
package runner

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Trials runs f for seeds base..base+n-1 on the process-wide pool and
// returns the results in seed order. f must be a pure function of its
// seed, so the output is independent of the worker count. workers > 0
// caps the concurrent executors on this fan-out (1 runs inline on the
// calling goroutine); <= 0 means as many as the pool provides.
//
// Prefer TrialsReduce (or CountTrials/RateTrials/MeanTrials) when the
// caller only folds the results: Trials materializes all n of them.
//
// If f panics on a pool worker, the fan-out still completes and Trials
// re-panics on the caller with a *TrialPanic annotating the trial index
// (the workers==1 inline path propagates the panic unwrapped).
func Trials[T any](n int, base uint64, workers int, f func(seed uint64) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			out[i] = f(base + uint64(i))
		}
		return out
	}
	dispatch(n, workers, chunkFor(n), base, func(i int) {
		out[i] = f(base + uint64(i))
	})
	return out
}

// TrialsReduce runs f for seeds base..base+n-1 on the process-wide pool
// and folds the results into acc strictly in seed order — the fold is
// bit-identical to folding the slice Trials would return, including for
// non-associative accumulation like float sums. Workers buffer only their
// current chunk of results and the submitting goroutine folds chunks as
// their turn comes, so memory stays O(chunk·workers) instead of O(n):
// huge -trials runs stop materializing []T.
//
// If f panics on a pool worker, the panicked chunk is never folded, the
// fan-out still completes, and TrialsReduce re-panics on the caller with
// a *TrialPanic annotating the trial index (the workers==1 inline path
// propagates the panic unwrapped).
func TrialsReduce[T, A any](n int, base uint64, workers int, acc A, f func(seed uint64) T, fold func(A, T) A) A {
	if n <= 0 {
		return acc
	}
	if workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			acc = fold(acc, f(base+uint64(i)))
		}
		return acc
	}
	chunk := chunkFor(n)
	nchunks := (n + chunk - 1) / chunk
	bufs := make([][]T, nchunks)
	ready := make([]atomic.Bool, nchunks)
	j := &job{n: n, chunk: chunk, fin: make(chan struct{})}
	j.run = func(lo, hi int) {
		buf := make([]T, hi-lo)
		var done bool
		i := lo
		defer func() {
			// A panicking trial function must not crash the bare pool
			// goroutine: record it (annotated with the trial index) and let
			// runChunk account the chunk, so the fan-out still completes and
			// the submitter re-panics below. The chunk never turns ready, so
			// no partial buffer is folded.
			if !done {
				j.recordPanic(&TrialPanic{Trial: i, Seed: base + uint64(i), Value: recover(), Stack: debug.Stack()})
			}
		}()
		for ; i < hi; i++ {
			buf[i-lo] = f(base + uint64(i))
		}
		done = true
		c := lo / chunk
		bufs[c] = buf
		ready[c].Store(true)
	}
	if workers > 0 {
		j.limit = int32(workers)
	}
	sched.submit(j)
	folded := 0
	foldReady := func() {
		for folded < nchunks && ready[folded].Load() {
			for _, v := range bufs[folded] {
				acc = fold(acc, v)
			}
			bufs[folded] = nil
			folded++
		}
	}
	for j.runChunk() {
		foldReady()
	}
	<-j.fin
	sched.remove(j)
	j.repanic()
	foldReady()
	return acc
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
// cycle: it retains up to one state per pool worker (plus headroom for
// submitting goroutines, which execute trials too) in a fixed LIFO slot
// array, so at steady state every concurrent executor gets the warmest
// retained state back. When all slots are empty Get falls back to newFn;
// when all are full Put drops the state for the GC — the retained set
// can never exceed what the pool can actually keep busy. Callers must
// fully re-initialize whatever state they read — a pooled value carries
// only capacity, never content.
type Pool[S any] struct {
	newFn func() S
	mu    sync.Mutex
	slots []S // lazily sized to the worker count on first Put
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
