package experiments

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/workloads"
)

// TestOptionsNormalize pins the one-place defaulting contract: every entry
// point resolves Options through normalize, so these rows are the behaviour
// of the CLI tools, the suite and the daemon alike. The trace cache is
// built by NewSuite, so its rows read the suite's.
func TestOptionsNormalize(t *testing.T) {
	sharedWC := NewWarmCache(1 << 20)
	cases := []struct {
		name  string
		in    Options
		check func(t *testing.T, o Options)
	}{
		{"zero value takes all defaults", Options{}, func(t *testing.T, o Options) {
			if o.Accesses != 2_000_000 {
				t.Errorf("Accesses = %d", o.Accesses)
			}
			if o.Warmup != o.Accesses {
				t.Errorf("Warmup = %d, want Accesses", o.Warmup)
			}
			if o.Seed != 42 {
				t.Errorf("Seed = %d", o.Seed)
			}
			if len(o.Benchmarks) != len(workloads.Names()) {
				t.Errorf("Benchmarks = %v", o.Benchmarks)
			}
			if o.Parallelism != runtime.GOMAXPROCS(0) {
				t.Errorf("Parallelism = %d, want GOMAXPROCS", o.Parallelism)
			}
			if tc := NewSuite(o).TraceCache(); tc == nil || tc.Budget() != DefaultTraceCacheBytes {
				t.Error("TraceCache not built with the default budget")
			}
			if o.WarmCache != nil {
				t.Error("WarmCache built without being handed one")
			}
			if o.Out != io.Discard {
				t.Error("Out not defaulted to io.Discard")
			}
		}},
		{"explicit zero warmup is preserved", Options{Warmup: 0, WarmupSet: true}, func(t *testing.T, o Options) {
			if o.Warmup != 0 {
				t.Errorf("Warmup = %d, want 0 (explicitly set)", o.Warmup)
			}
		}},
		{"non-positive parallelism maps to GOMAXPROCS", Options{Parallelism: -3}, func(t *testing.T, o Options) {
			if o.Parallelism != runtime.GOMAXPROCS(0) {
				t.Errorf("Parallelism = %d, want GOMAXPROCS", o.Parallelism)
			}
		}},
		{"positive parallelism is kept", Options{Parallelism: 3}, func(t *testing.T, o Options) {
			if o.Parallelism != 3 {
				t.Errorf("Parallelism = %d, want 3", o.Parallelism)
			}
		}},
		{"negative budgets disable both caches", Options{TraceCacheBytes: -1}, func(t *testing.T, o Options) {
			if NewSuite(o).TraceCache() != nil {
				t.Error("TraceCache built despite negative budget")
			}
			if o.WarmCache != nil {
				t.Error("WarmCache built without being handed one")
			}
		}},
		{"positive budgets size private caches", Options{TraceCacheBytes: 4 << 20}, func(t *testing.T, o Options) {
			if tc := NewSuite(o).TraceCache(); tc == nil || tc.Budget() != 4<<20 {
				t.Error("TraceCacheBytes not honoured")
			}
		}},
		// A slipd job's suite: no trace cache, the daemon's warm cache.
		{"shared caches win over budgets", Options{
			TraceCacheBytes: -1,
			WarmCache:       sharedWC,
		}, func(t *testing.T, o Options) {
			if o.WarmCache != sharedWC {
				t.Error("shared WarmCache replaced")
			}
		}},
		{"explicit sizing is kept", Options{Accesses: 5, Warmup: 7, Seed: 9, Benchmarks: []string{"mcf"}}, func(t *testing.T, o Options) {
			if o.Accesses != 5 || o.Warmup != 7 || o.Seed != 9 {
				t.Errorf("sizing changed: %+v", o)
			}
			if len(o.Benchmarks) != 1 || o.Benchmarks[0] != "mcf" {
				t.Errorf("Benchmarks = %v", o.Benchmarks)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.in
			o.normalize()
			tc.check(t, o)

			// normalize is idempotent: a second pass changes nothing
			// observable (cache identity included).
			again := o
			again.normalize()
			if again.WarmCache != o.WarmCache ||
				again.Accesses != o.Accesses || again.Warmup != o.Warmup ||
				again.Parallelism != o.Parallelism {
				t.Error("normalize is not idempotent")
			}
		})
	}

	// NewSuite must resolve through the same path.
	if o := NewSuite(Options{}).Options(); o.Accesses != 2_000_000 || o.Out != io.Discard {
		t.Error("NewSuite did not normalize its Options")
	}
}
