package experiments

import (
	"context"
	"sync"

	"repro/internal/hier"
	"repro/internal/spec"
)

// RunSpec is the declarative description of one simulation the Suite can
// perform — an alias for spec.Spec, so the CLI, the experiment engine and
// the slipd daemon all speak the same canonical run description. Sizing
// fields left unset inherit the suite's Options; everything else defaults
// to the paper configuration.
type RunSpec = spec.Spec

// RunSpecContext executes one spec through the memoizing entry points
// under ctx; the only error is ctx.Err() from a cancelled run. It is the
// unit of work of Prefetch workers and of the slipd job workers. The memo
// key is the resolved spec's canonical content hash (see KeyFor), so two
// specs describing the same simulation share one flight no matter which
// layer submitted them. Invalid specs panic, in the caller's goroutine,
// with the valid alternatives named.
func (s *Suite) RunSpecContext(ctx context.Context, sp RunSpec) (*hier.Result, error) {
	c := s.mustResolve(sp)
	return s.run(ctx, c.MustHash(), c)
}

// run returns the memoized result of canonical spec c, whose memo key is
// key, simulating it on a miss.
func (s *Suite) run(ctx context.Context, key string, c spec.Spec) (*hier.Result, error) {
	return s.runs.Get(ctx, key, func(ctx context.Context) (*hier.Result, error) {
		return s.simulate(ctx, key, c)
	})
}

// Memoized reports whether the memo holds a result for every spec, so
// rendering them simulates nothing. Runs still simulating do not count.
func (s *Suite) Memoized(specs []RunSpec) bool {
	for _, sp := range specs {
		if _, ok := s.runs.Peek(s.KeyFor(sp)); !ok {
			return false
		}
	}
	return true
}

// Prefetch simulates the given specs over a worker pool bounded by
// Options.Parallelism and leaves the results in the memo cache; subsequent
// Run/RunS/RunMix calls for the same keys return instantly. Duplicate
// specs run once. Each simulation runs entirely on one worker goroutine,
// so results are bit-identical to a sequential execution of the same
// specs.
func (s *Suite) Prefetch(specs []RunSpec) {
	// A background context never cancels, so the error is impossible.
	_ = s.PrefetchContext(context.Background(), specs)
}

// PrefetchContext is Prefetch under a context: when ctx is cancelled,
// undispatched specs are abandoned, in-flight simulations stop within a
// few thousand accesses, and ctx.Err() is returned. Completed specs stay
// memoized; abandoned ones leave no trace, so a later retry starts clean.
//
// The batch owns the lifetime of the trace streams it replays. It
// dispatches its runs grouped by stream, so one stream's readers run back
// to back, and removes each stream from the trace cache when the last of
// its runs that reads it returns; the streams of runs it never dispatched
// go when it returns. A finished batch thus retains none of its streams.
func (s *Suite) PrefetchContext(ctx context.Context, specs []RunSpec) error {
	return s.prefetch(ctx, specs, true)
}

// PrefetchKeepingTraces is PrefetchContext for a suite that serves batch
// after batch over the same streams, as slipd's /v1/experiments renders
// do: the streams it records stay in the trace cache, under its byte
// budget, so a later batch replays them instead of recording them again.
func (s *Suite) PrefetchKeepingTraces(ctx context.Context, specs []RunSpec) error {
	return s.prefetch(ctx, specs, false)
}

// prefetch runs a batch; free selects whether it removes each stream
// after its last reader.
func (s *Suite) prefetch(ctx context.Context, specs []RunSpec, free bool) error {
	runs := s.plan(specs)
	// left counts, per stream, the runs that read it and have not returned.
	var mu sync.Mutex
	left := make(map[string]int)
	if free {
		for _, r := range runs {
			for _, st := range r.streams {
				left[st]++
			}
		}
	}
	returned := func(r queuedRun) {
		mu.Lock()
		defer mu.Unlock()
		for _, st := range r.streams {
			if left[st]--; left[st] == 0 {
				delete(left, st)
				s.traces.Remove(st)
			}
		}
	}
	n := max(1, min(s.opts.Parallelism, len(runs)))
	ch := make(chan queuedRun)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range ch {
				if ctx.Err() == nil {
					_, _ = s.run(ctx, r.key, r.c)
				}
				if free {
					returned(r)
				}
			}
		}()
	}
dispatch:
	for _, r := range runs {
		select {
		case ch <- r:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	for st := range left {
		s.traces.Remove(st)
	}
	return ctx.Err()
}

// queuedRun is one run of a prefetched batch: its canonical spec, memo key
// and the trace-cache keys of the streams its cores replay.
type queuedRun struct {
	c       spec.Spec
	key     string
	streams []string
}

// plan resolves a batch, in the caller's goroutine so a typo surfaces as
// an ordinary panic instead of crashing a worker, and returns the runs to
// dispatch: one per memo key the memo does not hold yet, grouped by the
// stream their first core replays, the groups in order of first
// appearance and each group in batch order. A mix thus runs beside its
// first workload's single-core runs, and its second stream (seeded apart
// from every single-core stream) is read only by mixes.
func (s *Suite) plan(specs []RunSpec) []queuedRun {
	seen := make(map[string]bool, len(specs))
	groups := make(map[string][]queuedRun)
	var order []string // group keys, in order of first appearance
	for _, sp := range specs {
		c := s.mustResolve(sp)
		key := c.MustHash()
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, ok := s.runs.Peek(key); ok {
			continue
		}
		r := queuedRun{c: c, key: key, streams: s.streams(c)}
		var g string // "" when no stream is materialized
		if len(r.streams) > 0 {
			g = r.streams[0]
		}
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], r)
	}
	runs := make([]queuedRun, 0, len(seen))
	for _, g := range order {
		runs = append(runs, groups[g]...)
	}
	return runs
}

// RunAll fans the full benchmark x policy matrix (the suite's configured
// benchmark set against the given policies) over the worker pool and
// returns the runs keyed by workload then policy, each as a stats-only
// view of its memoized Result (hier.Result.View). The views are a shim
// for perfbench, which still reads *hier.System; code in this module
// reads Results through Run.
func (s *Suite) RunAll(policies ...hier.PolicyKind) map[string]map[hier.PolicyKind]*hier.System {
	out, _ := s.RunAllContext(context.Background(), policies...)
	return out
}

// RunAllContext is RunAll under a context; on cancellation it returns
// (nil, ctx.Err()) and stops queued work promptly.
func (s *Suite) RunAllContext(ctx context.Context, policies ...hier.PolicyKind) (map[string]map[hier.PolicyKind]*hier.System, error) {
	var specs []RunSpec
	for _, wl := range s.opts.Benchmarks {
		for _, p := range policies {
			specs = append(specs, spec.Single(wl, p))
		}
	}
	if err := s.PrefetchContext(ctx, specs); err != nil {
		return nil, err
	}
	out := make(map[string]map[hier.PolicyKind]*hier.System, len(s.opts.Benchmarks))
	for _, wl := range s.opts.Benchmarks {
		row := make(map[hier.PolicyKind]*hier.System, len(policies))
		for _, p := range policies {
			row[p] = s.Run(wl, p).View()
		}
		out[wl] = row
	}
	return out, nil
}

// Keys reports the memoized run keys, sorted — a test/debug aid. Runs
// still simulating, or whose only flight was cancelled, are not reported.
func (s *Suite) Keys() []string { return s.runs.Keys() }
