package experiments

import (
	"math"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/stats"
)

// TestSamplingKeysSplit proves a sampled run can never collide with its
// full-fidelity twin in any cache layer: the memo/store key (the spec
// hash) and the warm-snapshot key both split on the sampling factor, while
// the trace materialization key — workload, seed, length — is shared, so
// sampled runs reuse already-materialized traces.
func TestSamplingKeysSplit(t *testing.T) {
	s := NewSuite(Options{Accesses: 10_000, Warmup: 10_000, Seed: 7})
	full := spec.Single("milc", hier.SLIPABP)
	sampled := full
	sampled.Sampling = 8

	if s.KeyFor(full) == s.KeyFor(sampled) {
		t.Error("memo key does not split on sampling")
	}

	cFull, err := s.ResolveSpec(full)
	if err != nil {
		t.Fatal(err)
	}
	cSampled, err := s.ResolveSpec(sampled)
	if err != nil {
		t.Fatal(err)
	}
	if warmCacheKey(cFull) == warmCacheKey(cSampled) {
		t.Error("warm-snapshot key does not split on sampling")
	}

	// Sampling never reaches the trace identity: the full access stream is
	// generated (and materialized) identically; only its consumption is
	// filtered.
	if cFull.Workload != cSampled.Workload || cFull.Seed != cSampled.Seed ||
		cFull.Accesses != cSampled.Accesses || *cFull.Warmup != *cSampled.Warmup {
		t.Error("sampling leaked into the trace identity fields")
	}
}

// TestOptionsSamplingStamp checks the suite-wide knob: Options.Sampling
// reaches every spec that leaves Sampling unset, while a spec's explicit
// choice — including 1, the full-fidelity escape hatch — wins.
func TestOptionsSamplingStamp(t *testing.T) {
	s := NewSuite(Options{Accesses: 10_000, Warmup: 10_000, Seed: 7, Sampling: 8})

	c, err := s.ResolveSpec(spec.Single("milc", hier.SLIP))
	if err != nil {
		t.Fatal(err)
	}
	if c.Sampling != 8 {
		t.Errorf("unset spec resolved to Sampling=%d, want suite default 8", c.Sampling)
	}

	pinned := spec.Single("milc", hier.SLIP)
	pinned.Sampling = 1
	c, err = s.ResolveSpec(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if c.Sampling != 0 {
		t.Errorf("explicit Sampling=1 resolved to %d, want 0 (canonical full fidelity)", c.Sampling)
	}
}

// TestSampledRunThroughSuite runs one sampled spec end to end through the
// memoized engine (trace cache active) and sanity-checks the
// extrapolated system against its full-fidelity twin.
func TestSampledRunThroughSuite(t *testing.T) {
	s := NewSuite(Options{Accesses: 200_000, Warmup: 100_000, WarmupSet: true, Seed: 7})

	full := s.RunS(spec.Single("milc", hier.SLIPABP))
	sampled8 := spec.Single("milc", hier.SLIPABP)
	sampled8.Sampling = 8
	samp := s.RunS(sampled8)

	if samp.SampleK() != 8 {
		t.Fatalf("SampleK = %d, want 8", samp.SampleK())
	}
	if samp.SampledAccesses == 0 || samp.SkippedAccesses == 0 {
		t.Fatal("sampled run did not partition accesses")
	}
	// The calibration harness quantifies accuracy; here just require the
	// extrapolation to land within a loose 25% of full fidelity, which
	// catches scaling bugs (forgot a ×K, double-scaled) without being a
	// statistical flake.
	relErr := func(got, want float64) float64 {
		if want == 0 {
			return 0
		}
		return math.Abs(got-want) / want
	}
	if e := relErr(samp.ScaledFullSystemPJ(), full.FullSystemPJ()); e > 0.25 {
		t.Errorf("scaled energy off by %.1f%% from full fidelity", 100*e)
	}
	if e := relErr(float64(samp.ScaledL3Misses(true)), float64(full.L3Misses(true))); e > 0.25 {
		t.Errorf("scaled L3 misses off by %.1f%% from full fidelity", 100*e)
	}
}

// TestSampledFiguresExtrapolate: on a sampled suite, Figs. 10 and 13 and
// the H-tree speedup compare extrapolated totals. Raw totals would add
// exact core energy and base-CPI cycles to memory energy and stalls from
// only 1/K of the sets.
func TestSampledFiguresExtrapolate(t *testing.T) {
	s := NewSuite(Options{Accesses: 60_000, Warmup: 60_000, Seed: 7, Sampling: 8,
		Benchmarks: []string{"soplex", "milc"}})
	fig10, fig13 := s.Fig10(), s.Fig13()
	_, htreeSpeedup := s.HTree()
	speedup := func(base, run *hier.Result) float64 {
		return 100 * (base.ScaledMaxCycles()/run.ScaledMaxCycles() - 1)
	}
	var htreeSpeed []float64
	for _, name := range s.Options().Benchmarks {
		base := s.Run(name, hier.Baseline)
		if base.SampleK() != 8 {
			t.Fatalf("%s ran at K=%d, want 8", name, base.SampleK())
		}
		for i, p := range slipPolicies {
			want := stats.Savings(base.ScaledFullSystemPJ(), s.Run(name, p).ScaledFullSystemPJ())
			if got := fig10.Value(name, fig10.Columns[i+1]); got != want {
				t.Errorf("Fig. 10 %s %v = %.4f%%, want %.4f%% from extrapolated energy", name, p, got, want)
			}
		}
		for i, p := range evalPolicies {
			if got, want := fig13.Value(name, evalColumns[i+1]), speedup(base, s.Run(name, p)); got != want {
				t.Errorf("Fig. 13 %s %v = %.4f%%, want %.4f%% from extrapolated cycles", name, p, got, want)
			}
		}
		htreeSpeed = append(htreeSpeed, speedup(base, s.RunS(htreeSpec(name))))
	}
	if want := stats.Mean(htreeSpeed); htreeSpeedup != want {
		t.Errorf("H-tree speedup = %.4f%%, want %.4f%% from extrapolated cycles", htreeSpeedup, want)
	}
}

// TestSetSamplingRow renders the setsampling experiment at toy sizes and
// checks its result's shape: one entry per factor, a simulated share near
// 1/K, finite error statistics.
func TestSetSamplingRow(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 30_000, Warmup: 20_000, WarmupSet: true, Seed: 7,
		Benchmarks: []string{"milc", "mcf"},
	})
	s.Prefetch(s.SpecsFor("setsampling"))
	got := s.SetSampling()
	if len(got) != len(SamplingFactors) {
		t.Fatalf("%d factor results, want one per factor of %v", len(got), SamplingFactors)
	}
	for i, f := range got {
		if f.Factor != SamplingFactors[i] {
			t.Errorf("result %d is factor %d, want %d", i, f.Factor, SamplingFactors[i])
		}
		if share := f.SampledShare; share <= 0 || share >= 1 || math.Abs(share*float64(f.Factor)-1) > 0.1 {
			t.Errorf("1/%d: simulated share %v, want in (0, 1) and within 10%% of 1/%d", f.Factor, share, f.Factor)
		}
		for name, st := range map[string]SamplingErrorStat{
			"L2MissRatio": f.L2MissRatio,
			"L3MissRatio": f.L3MissRatio,
			"EnergyPJ":    f.EnergyPJ,
			"EDP":         f.EDP,
		} {
			if math.IsNaN(st.MeanAbsPct) || math.IsInf(st.MaxAbsPct, 0) ||
				st.MeanAbsPct < 0 || st.MaxAbsPct < st.MeanAbsPct {
				t.Errorf("1/%d: %s error stat malformed: %+v", f.Factor, name, st)
			}
		}
	}
}
