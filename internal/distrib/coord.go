package distrib

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// Config tunes one distributed sweep execution.
type Config struct {
	// Workers are the connected worker transports. Empty means every lease
	// runs inline in this process; with no Cache either, the sweep is
	// scenario.RunSpec's and no lease is planned.
	Workers []Transport
	// Cache, when non-nil, serves completed leases by content address and
	// stores fresh results.
	Cache *Cache
	// LeaseTimeout bounds one lease on one worker; past it the worker is
	// declared lost and the lease reassigned. 0 means DefaultLeaseTimeout.
	LeaseTimeout time.Duration
	// ChunkSize is the trial count per lease; 0 means DefaultChunkSize. It
	// shapes cache keys (a different chunking addresses different content),
	// so the default is fixed, independent of worker count and wall clock.
	ChunkSize int
	// InlineWorkers caps the concurrency of trials run in this process
	// (the whole sweep when neither workers nor a cache is configured,
	// otherwise each inline lease): 1 runs trials sequentially on the
	// calling goroutine, <= 0 uses the process-wide pool. Results are
	// identical for any value.
	InlineWorkers int
}

// DefaultLeaseTimeout declares a worker lost when one lease exceeds it.
const DefaultLeaseTimeout = 2 * time.Minute

// DefaultChunkSize is the trials-per-lease default. Small enough to load-
// balance a handful of workers on typical -trials counts, big enough that
// framing stays negligible against simulation cost — and deliberately not
// a function of the worker count, so cache keys survive -distribute
// changes.
const DefaultChunkSize = 16

// Stats reports what one distributed execution did — surfaced by
// amrun -timing and asserted by the differential tests.
type Stats struct {
	Points     int // sweep points executed
	Leases     int // total leases (cache hits included)
	FromCache  int // leases served by the result cache
	Dispatched int // lease assignments sent to workers (retries included)
	Inline     int // leases run in-process (no workers, or all lost)
	Retries    int // lease reassignments after a worker was lost
	LostWorker int // workers declared lost (died or timed out)
}

// lease is one unit of dispatch: a sweep point's trial range.
type lease struct {
	id    int
	point int // index into the expanded points
	lo    int // trial range [lo, hi)
	hi    int
	key   string // content address (cache + dedup)
}

// outcome is one manager report back to the coordinator loop.
type outcome struct {
	l    *lease
	vals [][]uint64 // success
	err  error      // deterministic lease failure (never retried)
	lost bool       // transport failure or timeout; l (if any) is reassigned
}

// Run executes the spec's sweep across the configured workers and merges
// the results in (point, chunk, trial) order, yielding a SweepResult
// byte-identical to scenario.RunSpec(spec, ...) at the same seed. With
// neither workers nor a cache it is that RunSpec call, with zero leases.
func Run(spec scenario.Spec, cfg Config) (*scenario.SweepResult, *Stats, error) {
	if len(cfg.Workers) == 0 && cfg.Cache == nil {
		res, err := scenario.RunSpec(spec, scenario.Options{Workers: cfg.InlineWorkers})
		if err != nil {
			return nil, nil, err
		}
		return res, &Stats{Points: len(res.Points)}, nil
	}
	if spec.Checkpoint {
		return nil, nil, fmt.Errorf("distrib: checkpointed sweeps are in-process only (a checkpoint cannot cross a process boundary); drop -distribute, -cache or checkpoint")
	}
	names, defs, err := scenario.ResolveMetrics(spec)
	if err != nil {
		return nil, nil, err
	}
	trials := spec.Trials
	if trials <= 0 {
		trials = 1
	}
	chunk := cfg.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	points, err := spec.Expand()
	if err != nil {
		return nil, nil, err
	}

	// Pre-bind every point, exactly like the in-process executor: all
	// configuration errors surface here, before any lease is dispatched or
	// served from cache — and the bounds double as the inline fallback.
	bounds := make([]*boundEntry, len(points))
	for i, pt := range points {
		b, err := scenario.Bind(pt.Spec)
		if err != nil {
			return nil, nil, err
		}
		extract, err := b.MetricExtractors(defs)
		if err != nil {
			return nil, nil, err
		}
		bounds[i] = &boundEntry{bound: b, extract: extract}
	}

	// Plan the leases point-major in chunk order. The wire spec pins the
	// resolved metric names so a worker (and the cache key) can never
	// disagree with the coordinator about what to extract; the PointResult
	// keeps the original point spec untouched.
	stats := &Stats{Points: len(points)}
	var leases []*lease
	wireSpecs := make([]scenario.Spec, len(points))
	for i, pt := range points {
		ws := pt.Spec
		ws.Metrics = names
		wireSpecs[i] = ws
		for lo := 0; lo < trials; lo += chunk {
			hi := lo + chunk
			if hi > trials {
				hi = trials
			}
			l := &lease{id: len(leases), point: i, lo: lo, hi: hi,
				key: LeaseKey(ws, ws.Seed, lo, hi)}
			leases = append(leases, l)
		}
	}
	stats.Leases = len(leases)
	results := make([][][]uint64, len(leases)) // lease id → trial vectors

	// Serve what the cache already knows. An entry of the wrong shape (a
	// foreign or damaged file under the right key) is a miss: the lease
	// reruns and its fresh result overwrites the entry.
	var todo []*lease
	for _, l := range leases {
		if cfg.Cache != nil {
			if vals, ok := cfg.Cache.Get(l.key); ok && wellFormed(vals, l, len(names)) {
				results[l.id] = vals
				stats.FromCache++
				continue
			}
		}
		todo = append(todo, l)
	}

	record := func(l *lease, vals [][]uint64) {
		results[l.id] = vals
		if cfg.Cache != nil {
			cfg.Cache.Put(l.key, vals)
		}
	}
	inline := func(l *lease) {
		stats.Inline++
		record(l, PackVals(bounds[l.point].bound.RunTrialValues(bounds[l.point].extract, l.lo, l.hi, cfg.InlineWorkers)))
	}

	if err := dispatchLeases(todo, wireSpecs, cfg, stats, record, inline); err != nil {
		return nil, nil, err
	}

	// Merge: per point, concatenate the chunk vectors in chunk order and
	// replay the in-process fold.
	out := &scenario.SweepResult{Spec: spec}
	for _, ax := range spec.Sweep {
		out.Axes = append(out.Axes, ax.Name)
	}
	byPoint := make([][][]float64, len(points))
	for i := range byPoint {
		byPoint[i] = make([][]float64, 0, trials)
	}
	for _, l := range leases {
		byPoint[l.point] = append(byPoint[l.point], UnpackVals(results[l.id])...)
	}
	for i, pt := range points {
		out.Points = append(out.Points, scenario.PointResult{
			Spec: pt.Spec, Coords: pt.Coords, Trials: trials,
			Metrics: scenario.FoldMetrics(names, defs, trials, byPoint[i]),
		})
	}
	return out, stats, nil
}

// wellFormed reports whether a lease result from outside this process (a
// cache entry or a worker reply) has one row per trial of the lease and
// one column per metric, the shape the merge folds.
func wellFormed(vals [][]uint64, l *lease, width int) bool {
	if len(vals) != l.hi-l.lo {
		return false
	}
	for _, row := range vals {
		if len(row) != width {
			return false
		}
	}
	return true
}

// dispatchLeases drives the worker fleet over the todo list: every worker
// gets a manager goroutine pulling from one shared lease channel, lost
// workers (transport error or lease timeout) have their in-flight lease
// reassigned, and when no workers remain the leftovers run inline — a
// killed worker can change wall clock, never output.
func dispatchLeases(todo []*lease, wireSpecs []scenario.Spec, cfg Config, stats *Stats,
	record func(*lease, [][]uint64), inline func(*lease)) error {
	if len(todo) == 0 {
		return nil
	}
	if len(cfg.Workers) == 0 {
		for _, l := range todo {
			inline(l)
		}
		return nil
	}
	timeout := cfg.LeaseTimeout
	if timeout <= 0 {
		timeout = DefaultLeaseTimeout
	}

	// Requeues keep the lease channel at most len(todo) deep (a lease is
	// queued, assigned, or resolved — never two at once), and each lease
	// has exactly one terminal outcome while lost outcomes consume a
	// worker each, so both channels are sized to never block a sender.
	leaseCh := make(chan *lease, len(todo))
	outcomes := make(chan outcome, len(todo)+len(cfg.Workers))
	for _, l := range todo {
		leaseCh <- l
	}
	var dispatched atomic.Int64
	for _, w := range cfg.Workers {
		go manage(w, wireSpecs, leaseCh, outcomes, timeout, &dispatched)
	}
	defer func() { stats.Dispatched = int(dispatched.Load()) }()

	live := len(cfg.Workers)
	pending := len(todo)
	var firstErr error
	for pending > 0 && live > 0 && firstErr == nil {
		o := <-outcomes
		switch {
		case o.lost:
			stats.LostWorker++
			live--
			if o.l != nil {
				stats.Retries++
				leaseCh <- o.l
			}
		case o.err != nil:
			firstErr = o.err
		default:
			record(o.l, o.vals)
			pending--
		}
	}
	// Unblock the surviving managers. Drain first so an abort (or the
	// all-workers-lost fallback) does not leave them grinding stale work.
	remaining := drain(leaseCh)
	close(leaseCh)
	if firstErr != nil {
		return firstErr
	}
	for _, l := range remaining {
		inline(l)
	}
	return nil
}

// drain empties the lease channel without closing it.
func drain(ch chan *lease) []*lease {
	var out []*lease
	for {
		select {
		case l := <-ch:
			out = append(out, l)
		default:
			return out
		}
	}
}

// recvMsg is one frame (or stream error) from a worker's reader.
type recvMsg struct {
	m   Msg
	err error
}

// manage drives one worker: send a lease, await its reply under the
// timeout, repeat. Any transport error or timeout retires the worker —
// the transport is closed so a straggling reply can never surface later,
// which is what makes duplicate results impossible and reassignment safe.
// Each lease gets exactly one receive, so no read is left pending when the
// sweep ends: the worker keeps its session for the caller's next Run, and
// closing the transport (EOF) ends it.
func manage(t Transport, wireSpecs []scenario.Spec, leaseCh chan *lease, outcomes chan<- outcome,
	timeout time.Duration, dispatched *atomic.Int64) {
	recvCh := make(chan recvMsg, 1)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for l := range leaseCh {
		spec := wireSpecs[l.point]
		dispatched.Add(1)
		if err := t.Send(&Msg{Type: msgLease, ID: l.id, Spec: &spec, Lo: l.lo, Hi: l.hi}); err != nil {
			t.Close()
			outcomes <- outcome{l: l, lost: true}
			return
		}
		// The reader ends with the reply, or with the error Close causes
		// on a timeout; the buffer lets it finish after manage returns.
		go func() {
			var m Msg
			err := t.Recv(&m)
			recvCh <- recvMsg{m: m, err: err}
		}()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(timeout)
		select {
		case rm := <-recvCh:
			switch {
			case rm.err != nil:
				t.Close()
				outcomes <- outcome{l: l, lost: true}
				return
			case rm.m.Type == msgError && rm.m.ID == l.id:
				outcomes <- outcome{l: l, err: fmt.Errorf("distrib: lease %d (point %d trials [%d,%d)): %s",
					l.id, l.point, l.lo, l.hi, rm.m.Err)}
			case rm.m.Type == msgResult && rm.m.ID == l.id && wellFormed(rm.m.Vals, l, len(spec.Metrics)):
				outcomes <- outcome{l: l, vals: rm.m.Vals}
			default:
				// Protocol confusion (wrong id, unexpected type, a result of
				// the wrong shape): the worker can no longer be trusted, so
				// it is lost and its lease requeued; nothing is cached.
				t.Close()
				outcomes <- outcome{l: l, lost: true}
				return
			}
		case <-timer.C:
			t.Close()
			outcomes <- outcome{l: l, lost: true}
			return
		}
	}
}
