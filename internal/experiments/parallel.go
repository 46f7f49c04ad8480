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
	key := c.MustHash()
	return s.runs.Get(ctx, key, func(ctx context.Context) (*hier.Result, error) {
		return s.simulate(ctx, key, c)
	})
}

// Prefetch simulates the given specs over a worker pool bounded by
// Options.Parallelism and leaves the results in the memo cache; subsequent
// Run/RunS/RunMix calls for the same keys return instantly. Duplicate
// specs are collapsed by the singleflight cache. Each simulation runs
// entirely on one worker goroutine, so results are bit-identical to a
// sequential execution of the same specs.
func (s *Suite) Prefetch(specs []RunSpec) {
	// A background context never cancels, so the error is impossible.
	_ = s.PrefetchContext(context.Background(), specs)
}

// PrefetchContext is Prefetch under a context: when ctx is cancelled,
// undispatched specs are abandoned, in-flight simulations stop within a
// few thousand accesses, and ctx.Err() is returned. Completed specs stay
// memoized; abandoned ones leave no trace, so a later retry starts clean.
func (s *Suite) PrefetchContext(ctx context.Context, specs []RunSpec) error {
	// Resolve every spec up front, in the caller's goroutine, so a typo
	// surfaces as an ordinary panic instead of crashing a worker.
	for _, sp := range specs {
		s.mustResolve(sp)
	}
	n := s.opts.Parallelism
	if n > len(specs) {
		n = len(specs)
	}
	if n < 1 {
		n = 1
	}
	ch := make(chan RunSpec)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range ch {
				if ctx.Err() == nil {
					_, _ = s.RunSpecContext(ctx, sp)
				}
			}
		}()
	}
dispatch:
	for _, sp := range specs {
		select {
		case ch <- sp:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(ch)
	wg.Wait()
	return ctx.Err()
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
