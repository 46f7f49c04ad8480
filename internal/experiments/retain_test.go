package experiments

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/hier"
)

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC() // and once more, to free what pools dropped
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSuiteRetainsOnlyStatistics: a suite that has finished the Fig. 9
// matrix for two benchmarks holds each run's statistics, not its
// simulated caches. Ten retained Systems would hold about 12 MiB.
func TestSuiteRetainsOnlyStatistics(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation sizes")
	}
	before := liveHeap()
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7, TraceCacheBytes: -1,
		Benchmarks: []string{"milc", "soplex"}, Parallelism: 2,
	})
	s.Prefetch(s.SpecsFor("fig9"))
	if n := len(s.Keys()); n != 10 {
		t.Fatalf("memoized %d runs, want 10", n)
	}
	grown := int64(liveHeap()) - int64(before)
	runtime.KeepAlive(s)
	if grown >= 2<<20 {
		t.Errorf("a suite holding 10 finished runs grew the live heap by %.1f MiB, want < 2", float64(grown)/(1<<20))
	}
}

// TestRunAllViewsAreStatsOnly: RunAll's Systems answer every statistic
// from the memoized Result, and refuse to run, reset, snapshot or check.
func TestRunAllViewsAreStatsOnly(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc"}, Parallelism: 2,
	})
	views := s.RunAll(hier.Baseline, hier.SLIPABP)
	for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
		v, r := views["milc"][p], s.Run("milc", p)
		if v.Result() != r {
			t.Fatalf("%v: the view answers from a different Result", p)
		}
		if v.Config() != r.Config || v.L2TotalPJ() != r.L2TotalPJ() || v.IPC(0) != r.IPC(0) {
			t.Errorf("%v: the view's statistics differ from its Result's", p)
		}
		if v.L1(0).Stats.Accesses != r.Cores[0].L1.Accesses || v.L3().Stats.Hits != r.L3.Hits || v.EOUOps != r.EOUOps {
			t.Errorf("%v: the view's levels or counters differ from its Result's", p)
		}
		if got, want := v.L2(0).Name(), hier.New(r.Config).L2(0).Name(); got != want {
			t.Errorf("%v: the view's L2 is named %q, a live one %q", p, got, want)
		}
		if err := r.CheckWindow(20_000); err != nil {
			t.Errorf("%v: %v", p, err)
		}
	}
	v := views["milc"][hier.SLIPABP]
	for op, f := range map[string]func(){
		"Run":             func() { v.Run(nil) },
		"ResetStats":      v.ResetStats,
		"Snapshot":        func() { v.Snapshot() },
		"CheckInvariants": func() { _ = v.CheckInvariants() },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "stats-only view") || !strings.Contains(msg, "RunAll") {
					t.Errorf("%s on a view: panic %q, want one naming the RunAll shim", op, msg)
				}
			}()
			f()
		}()
	}
	if n := len(s.Keys()); n != 2 {
		t.Errorf("memoized %d runs, want 2", n)
	}
}
