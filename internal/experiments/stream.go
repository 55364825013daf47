package experiments

import "runtime"

// RunStream executes the experiments concurrently and calls emit for each
// Result in input order: experiment i is emitted as soon as it and every
// earlier experiment have finished, so output streams instead of waiting
// for the whole set. The concurrency changes nothing about the results —
// each experiment derives all randomness from (Options.Seed, its own
// parameter grid), and each of their trial fan-outs merges in seed order
// whatever executors ran it. emit runs on the calling goroutine.
//
// At most GOMAXPROCS experiments run at once. Beyond that there are no
// idle cycles left to fill — interleaving more of them only grows the
// live heap and thrashes caches (on a single-core box an uncapped stream
// was measurably slower than a serial loop, not faster).
func RunStream(es []Experiment, o Options, emit func(*Result)) {
	done := make([]chan *Result, len(es))
	slots := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for i := range es {
		done[i] = make(chan *Result, 1)
		go func(i int) {
			slots <- struct{}{}
			defer func() { <-slots }()
			done[i] <- Run(es[i], o)
		}(i)
	}
	for i := range es {
		emit(<-done[i])
	}
}
