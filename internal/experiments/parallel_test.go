package experiments

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// detOptions sizes the determinism comparison: small enough to run twice
// under -race, large enough that the sampling machinery classifies pages
// (so policy decisions, not just cold misses, feed the compared numbers).
func detOptions(parallelism int) Options {
	return Options{
		Accesses:    60_000,
		Warmup:      120_000,
		Seed:        7,
		Benchmarks:  []string{"soplex", "milc", "sphinx3"},
		Parallelism: parallelism,
	}
}

// TestParallelRunAllMatchesSequential is the determinism guarantee: fanning
// the benchmark x policy matrix over a worker pool must produce numerically
// identical results to running the same matrix one at a time. Exact float
// equality is intentional — each simulation is single-goroutine and seeded,
// so parallelism may not perturb a single bit. Every memoized Result, read
// through the view RunAll returns, must also keep its counter identities.
func TestParallelRunAllMatchesSequential(t *testing.T) {
	pols := []hier.PolicyKind{hier.Baseline, hier.SLIPABP}

	seq := NewSuite(detOptions(1))
	par := NewSuite(detOptions(8))
	views := par.RunAll(pols...)

	for _, wl := range seq.Options().Benchmarks {
		for _, p := range pols {
			v := views[wl][p]
			if v == nil {
				t.Fatalf("%s/%v: missing parallel run", wl, p)
			}
			want, got := seq.Run(wl, p), v.Result()
			for _, r := range []*hier.Result{want, got} {
				if err := r.CheckWindow(detOptions(1).Accesses); err != nil {
					t.Errorf("%s/%v: %v", wl, p, err)
				}
			}
			if a, b := want.FullSystemPJ(), got.FullSystemPJ(); a != b {
				t.Errorf("%s/%v: full-system energy %v (sequential) != %v (parallel)", wl, p, a, b)
			}
			if a, b := want.L2TotalPJ(), got.L2TotalPJ(); a != b {
				t.Errorf("%s/%v: L2 energy %v != %v", wl, p, a, b)
			}
			if a, b := want.L3TotalPJ(), got.L3TotalPJ(); a != b {
				t.Errorf("%s/%v: L3 energy %v != %v", wl, p, a, b)
			}
			wl2, gl2 := &want.Cores[0].L2, &got.Cores[0].L2
			if wl2.Hits.Value() != gl2.Hits.Value() || wl2.Accesses.Value() != gl2.Accesses.Value() {
				t.Errorf("%s/%v: L2 hits/accesses %d/%d != %d/%d", wl, p,
					wl2.Hits.Value(), wl2.Accesses.Value(), gl2.Hits.Value(), gl2.Accesses.Value())
			}
			if a, b := want.DRAMTraffic(), got.DRAMTraffic(); a != b {
				t.Errorf("%s/%v: DRAM traffic %d != %d", wl, p, a, b)
			}
			if a, b := want.MaxCycles(), got.MaxCycles(); a != b {
				t.Errorf("%s/%v: cycles %v != %v", wl, p, a, b)
			}
		}
	}
}

// TestSingleflightCollapsesConcurrentRuns hammers one memo key from many
// goroutines; every caller must get the same memoized result back.
func TestSingleflightCollapsesConcurrentRuns(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc"}, Parallelism: 4,
	})
	const callers = 8
	results := make([]*hier.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Run("milc", hier.Baseline)
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different result: duplicate simulation ran", i)
		}
	}
	if keys := s.Keys(); len(keys) != 1 {
		t.Errorf("expected one memo entry, got %v", keys)
	}
}

// TestPrefetchCoversFigureRuns checks every row's specs stay in sync with
// what its render consumes: after prefetching SpecsFor(name), rendering
// must not simulate anything new. Each row gets a fresh suite, so runs an
// earlier row prefetched cannot hide a stale later row.
func TestPrefetchCoversFigureRuns(t *testing.T) {
	for _, name := range ExperimentNames() {
		s := NewSuite(Options{
			Accesses: 10_000, Warmup: 10_000, Seed: 7,
			Benchmarks: []string{"milc", "sphinx3"}, Parallelism: 4,
		})
		s.Prefetch(s.SpecsFor(name))
		before := len(s.Keys())
		if err := s.RunNamed(name); err != nil {
			t.Fatal(err)
		}
		if after := len(s.Keys()); after != before {
			t.Errorf("%s simulated %d extra runs after prefetch (%d -> %d): its specs are stale",
				name, after-before, before, after)
		}
	}
}

// TestRunMixKeyDistinct guards the memo-key invariant: a mix run must be
// memoized once, under a spec hash that can never collide with the
// single-core runs of either component workload.
func TestRunMixKeyDistinct(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 5_000, Warmup: 0, WarmupSet: true, Seed: 7,
	})
	m := workloads.Mix{A: "milc", B: "sphinx3"}
	a := s.RunMix(m, hier.Baseline)
	if b := s.RunMix(m, hier.Baseline); a != b {
		t.Error("identical mix runs not memoized")
	}
	keys := s.Keys()
	if len(keys) != 1 || !strings.HasPrefix(keys[0], "s1:") {
		t.Errorf("mix memo keys = %v, want a single spec-hash key", keys)
	}
	for _, wl := range []string{"milc", "sphinx3"} {
		if k := s.KeyFor(spec.Single(wl, hier.Baseline)); k == keys[0] {
			t.Errorf("mix key collides with single-core %s key %q", wl, k)
		}
	}
}

// TestPanicListsValidWorkloads checks the misuse panic is self-diagnosing.
func TestPanicListsValidWorkloads(t *testing.T) {
	check := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: no panic for unknown workload", name)
				return
			}
			msg, ok := r.(string)
			if !ok || !strings.Contains(msg, "nonesuch") || !strings.Contains(msg, "soplex") {
				t.Errorf("%s: panic %q does not name the bad workload and the valid set", name, r)
			}
		}()
		f()
	}
	s := smallSuite()
	check("Run", func() { s.Run("nonesuch", hier.Baseline) })
	check("RunMix", func() { s.RunMix(workloads.Mix{A: "milc", B: "nonesuch"}, hier.Baseline) })
	check("Prefetch", func() { s.Prefetch([]RunSpec{spec.Single("nonesuch", hier.Baseline)}) })
}
