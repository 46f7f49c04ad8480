// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) plus the quantitative claims made in the text
// (H-tree overhead, 22nm scaling, distribution bit-width sensitivity,
// sampling traffic), and two tables the paper does not have: every policy
// of the policy table side by side, and the set-sampling calibration. Each
// experiment prints the same rows/series the paper reports and returns the
// stats.Table it prints, whose Value reads a number by the row and column
// labels on the page; the experiment table (named.go) lists them in
// presentation order.
//
// The Suite memoizes each run's hier.Result, captured when its measured
// window ends, so figures that share runs (9, 10, 11, 12, 13, 14, 15 all
// read the same 14 benchmark x 5 policy matrix) pay for each simulation
// once, and a finished run retains its statistics but not its simulated
// caches. The memo cache is goroutine-safe with singleflight semantics:
// concurrent requests for the same run block on a single simulation
// instead of duplicating it, and Prefetch/RunAll fan the run matrix over a
// bounded worker pool. Each simulated system is built and driven by
// exactly one goroutine, so parallel results are bit-identical to
// sequential ones.
package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/hier"
	"repro/internal/lru"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Options sizes and seeds an experiment run.
type Options struct {
	// Accesses is the measured per-benchmark trace length (default 2M).
	Accesses uint64
	// Warmup is the number of accesses replayed before statistics are
	// reset — the analogue of the paper's 3B-instruction fast-forward,
	// giving the sampling state machine and caches time to reach steady
	// state (default: equal to Accesses).
	Warmup uint64
	// warmupSet tracks whether Warmup was set explicitly (zero is legal).
	WarmupSet bool
	// Seed drives all randomness.
	Seed uint64
	// Sampling, when > 1, stamps the set-sampling factor K into every spec
	// that does not set its own: runs simulate 1/K of the cache sets and
	// report extrapolated statistics. A spec with an explicit Sampling
	// (including 1, the canonical full-fidelity value) keeps it.
	Sampling int
	// Benchmarks restricts the workload set (default: all).
	Benchmarks []string
	// Parallelism bounds the worker pool used by Prefetch/RunAll
	// (default: runtime.GOMAXPROCS(0)). It only affects how many distinct
	// simulations run concurrently, never the result of any of them.
	Parallelism int
	// TraceCacheBytes bounds the suite's trace materialization cache: each
	// workload's access stream is recorded once (compact varint encoding)
	// and replayed for every policy that consumes it, which is most of the
	// non-simulator cost of a benchmark x policy matrix. Zero selects
	// DefaultTraceCacheBytes; a negative value disables materialization
	// entirely (sources are regenerated per run), as a suite that runs each
	// stream once should. Replayed runs are bit-identical to generated ones.
	TraceCacheBytes int64
	// WarmCache, when non-nil, memoizes the post-warmup hierarchy state of
	// each distinct warmup identity (spec minus the measured window): it is
	// snapshotted once and cloned for every later run that shares it,
	// skipping the warmup simulation entirely. Nil, the default, runs every
	// warmup: within one suite's matrix no two runs share a warmup
	// identity, so only slipd's per-job suites, whose requests do repeat
	// one, are handed its shared cache. Snapshot-seeded runs are
	// bit-identical to straight-through ones.
	WarmCache *WarmCache
	// Out receives the printed tables (nil discards).
	Out io.Writer
	// Progress, when set, receives simulation progress: the memo key of
	// the run and the cumulative accesses driven so far (warmup plus
	// measured; both traces for a mix). It is called from the simulating
	// goroutine every few thousand accesses, must be cheap and safe for
	// concurrent use, and never affects results.
	Progress func(key string, done uint64)
}

// normalize applies every default in one place — sizing, seed, benchmark
// set, worker-pool width, output sink — so each entry point
// (NewSuite, the CLI tools, slipd's per-job suites) resolves an Options the
// same way. It is idempotent: normalizing an already-normalized Options
// changes nothing.
func (o *Options) normalize() {
	if o.Accesses == 0 {
		o.Accesses = spec.DefaultAccesses
	}
	if o.Warmup == 0 && !o.WarmupSet {
		o.Warmup = o.Accesses
	}
	if o.Seed == 0 {
		o.Seed = spec.DefaultSeed
	}
	if len(o.Benchmarks) == 0 {
		o.Benchmarks = workloads.Names()
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
}

// Suite memoizes runs across experiments. All methods are safe for
// concurrent use. The memo holds each run's *hier.Result, captured once at
// the end of its measured window; the simulated System is dropped there,
// so its cache arrays, page tables and policy state do not outlive the
// run. A Result is never written after capture, so renders only read the
// memo.
type Suite struct {
	opts   Options
	runs   *lru.Cache[*hier.Result] // the memo, keyed by KeyFor; never evicts
	traces *TraceCache              // nil when TraceCacheBytes < 0
}

// NewSuite builds a suite with the given options and its own trace cache.
func NewSuite(opts Options) *Suite {
	opts.normalize()
	s := &Suite{opts: opts, runs: lru.New[*hier.Result](0, nil)}
	if opts.TraceCacheBytes >= 0 {
		s.traces = NewTraceCache(opts.TraceCacheBytes)
	}
	return s
}

// WithOut returns a view of the suite that prints its tables to w (nil
// discards). The view shares the memo and the trace cache, so concurrent
// renders through separate views each get their own output.
func (s *Suite) WithOut(w io.Writer) *Suite {
	if w == nil {
		w = io.Discard
	}
	v := *s
	v.opts.Out = w
	return &v
}

// Options returns the filled options.
func (s *Suite) Options() Options { return s.opts }

// printf writes to the configured output.
func (s *Suite) printf(format string, args ...any) {
	fmt.Fprintf(s.opts.Out, format, args...)
}

// ResolveSpec stamps the suite's sizing (accesses, warmup, seed) into any
// unset fields of sp and canonicalizes it. The result is the run's full
// identity: hashing it yields the memo key the suite will use.
func (s *Suite) ResolveSpec(sp RunSpec) (spec.Spec, error) {
	if sp.Accesses == 0 {
		sp.Accesses = s.opts.Accesses
	}
	if sp.Warmup == nil {
		w := s.opts.Warmup
		sp.Warmup = &w
	}
	if sp.Seed == 0 {
		sp.Seed = s.opts.Seed
	}
	if sp.Sampling == 0 {
		sp.Sampling = s.opts.Sampling
	}
	return sp.Canonical()
}

// mustResolve is ResolveSpec for specs built by trusted callers: an invalid
// spec (a typo in a benchmark list) is a programming error, so it panics
// with the validation message, which names the valid alternatives.
func (s *Suite) mustResolve(sp RunSpec) spec.Spec {
	c, err := s.ResolveSpec(sp)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return c
}

// KeyFor reports the memo key sp occupies in this suite: the canonical
// content hash of the spec with the suite's sizing stamped in. External
// result caches (the slipd LRU store) key on the same hashes, so the
// format is part of the spec package's contract, not this one's.
func (s *Suite) KeyFor(sp RunSpec) string {
	return s.mustResolve(sp).MustHash()
}

// progressFor adapts the Options.Progress hook to one keyed run; base
// offsets the measured phase past the warmup so the reported count is
// cumulative and monotonic across phases. Nil when no hook is set, which
// keeps the hook check off the hier hot path entirely.
func (s *Suite) progressFor(key string, base uint64) func(uint64) {
	if s.opts.Progress == nil {
		return nil
	}
	return func(n uint64) { s.opts.Progress(key, base+n) }
}

// Run returns the memoized single-core result for a workload and policy
// under the default configuration.
func (s *Suite) Run(wl string, p hier.PolicyKind) *hier.Result {
	return s.RunS(spec.Single(wl, p))
}

// RunMix returns the memoized two-core result for a Figure 16 mix. Core
// B's trace is seeded with Seed+1 so the two cores draw independent
// streams; mix specs canonicalize distinctly from every single-core spec,
// so their memo keys can never collide.
func (s *Suite) RunMix(m workloads.Mix, p hier.PolicyKind) *hier.Result {
	return s.RunS(spec.ForMix(m.A, m.B, p))
}

// RunS returns the memoized result for a declarative spec. Invalid specs
// panic before the memo slot is claimed, so a bad request never poisons
// the cache for a later correct one.
func (s *Suite) RunS(sp RunSpec) *hier.Result {
	res, _ := s.RunSpecContext(context.Background(), sp)
	return res
}

// TraceCache exposes the suite's trace materialization cache (nil when
// disabled), so tools and the daemon can report its statistics.
func (s *Suite) TraceCache() *TraceCache { return s.traces }

// WarmCache exposes the warm-state snapshot cache the suite was handed
// (nil when it has none; Stats on nil reports zeros).
func (s *Suite) WarmCache() *WarmCache { return s.opts.WarmCache }

// source builds core i's access stream: a replay of the materialized trace
// when the cache is enabled, a live generator otherwise. One Replay is
// consumed across both run phases (warmup then measured) exactly like a
// live generator would be, so total covers both. Waiting on another run's
// recording of the same stream ends with ctx; the only error is ctx.Err().
//
// A stream that could never be retained — every record takes at least two
// encoded bytes, so 2*total over the byte budget is a certain eviction —
// is not materialized at all: recording it would buy no reuse, cost a
// giant allocation, and (unlike the simulation itself) run outside the
// context's cancellation checks.
func (s *Suite) source(ctx context.Context, name string, seed, total uint64) (trace.Source, error) {
	wl, _ := workloads.ByName(name) // canonical specs name valid workloads
	tc := s.traces
	if tc == nil || total == 0 || total > uint64(tc.Budget())/2 {
		return wl.Build(seed), nil
	}
	buf, err := tc.Get(ctx, traceCacheKey(name, seed, total), func(context.Context) (*trace.Buffer, error) {
		return trace.Record(wl.Build(seed), total), nil
	})
	if err != nil {
		return nil, err
	}
	return buf.Replay(), nil
}

// simulate drives one canonical spec: per-core trace sources (core 0 runs
// the workload with the spec seed, core i runs MixWith — or the workload
// again — with seed+i), warmup, statistics reset, then the measured
// window, and returns the run's captured Result; the System itself is
// garbage from then on. For mixes, statistics are collected only while
// both benchmarks execute, as in the paper's overlap-window methodology.
func (s *Suite) simulate(ctx context.Context, key string, c spec.Spec) (*hier.Result, error) {
	cfg, err := c.Build()
	if err != nil {
		return nil, err // unreachable: c is canonical
	}
	warm := *c.Warmup
	srcs := make([]trace.Source, cfg.NumCores)
	for i := range srcs {
		name := c.Workload
		if i > 0 && c.MixWith != "" {
			name = c.MixWith
		}
		if srcs[i], err = s.source(ctx, name, c.Seed+uint64(i), warm+c.Accesses); err != nil {
			return nil, err
		}
	}
	limit := func(n uint64) []trace.Source {
		out := make([]trace.Source, len(srcs))
		for i, src := range srcs {
			out[i] = trace.Limit(src, n)
		}
		return out
	}
	var sys *hier.System
	switch wc := s.opts.WarmCache; {
	case warm > 0 && wc != nil:
		// Warm-state path: fetch (or build, under the cache's singleflight)
		// the post-warmup snapshot for this run's warmup identity. The
		// caller that ran the warmup drives the System it warmed, which the
		// snapshot copied; every other caller starts from a clone.
		snap, err := wc.Get(ctx, warmCacheKey(c), func(ctx context.Context) (*hier.Snapshot, error) {
			sys = hier.New(cfg)
			if err := sys.RunContext(ctx, s.progressFor(key, 0), limit(warm)...); err != nil {
				return nil, err
			}
			sys.ResetStats()
			return sys.Snapshot(), nil
		})
		if err != nil {
			return nil, err
		}
		if sys == nil {
			// Served from the cache: this caller's sources still stand at
			// access zero, so skip them past the warmup the snapshot already
			// embodies. Draining costs only trace decoding/generation, not
			// simulation.
			sys = snap.System()
			for _, src := range srcs {
				trace.Drain(src, warm)
			}
		}
	case warm > 0:
		sys = hier.New(cfg)
		if err := sys.RunContext(ctx, s.progressFor(key, 0), limit(warm)...); err != nil {
			return nil, err
		}
		sys.ResetStats()
	default:
		sys = hier.New(cfg)
	}
	if err := sys.RunContext(ctx, s.progressFor(key, uint64(len(srcs))*warm), limit(c.Accesses)...); err != nil {
		return nil, err
	}
	return sys.Result(), nil
}
