package hier

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/trace"
)

// warmRun drives warm then measured accesses of mixedSource(3) through a
// fresh system, resetting statistics in between, as the experiment engine
// does.
func warmRun(cfg Config, warm, measured uint64) *System {
	s := New(cfg)
	src := mixedSource(3)
	s.Run(trace.Limit(src, warm))
	s.ResetStats()
	s.Run(trace.Limit(src, measured))
	return s
}

// TestResultHoldsEveryIdentity checks the counter identities on every
// policy, at full fidelity and under 1/8 set sampling.
func TestResultHoldsEveryIdentity(t *testing.T) {
	const warm, measured = 60_000, 90_000
	for _, p := range allPolicies {
		for _, k := range []int{1, 8} {
			cfg := Config{Policy: p, Seed: 7}
			if k > 1 {
				cfg.SampleK, cfg.SampleMask = k, sampleMaskLow(k)
			}
			r := warmRun(cfg, warm, measured).Result()
			if err := r.CheckWindow(measured); err != nil {
				t.Errorf("%v K=%d: %v", p, k, err)
			}
			if r.CheckWindow(measured+1) == nil {
				t.Errorf("%v K=%d: a wrong driven count passes", p, k)
			}
		}
	}
}

// TestResultIsIndependentOfTheSystem: a captured Result keeps every value,
// sublevel hit counts included, when the system it came from runs on.
func TestResultIsIndependentOfTheSystem(t *testing.T) {
	s := warmRun(Config{Policy: SLIPABP, Seed: 7}, 40_000, 40_000)
	r := s.Result()
	before := fmt.Sprintf("%+v", *r)
	s.Run(trace.Limit(mixedSource(9), 40_000))
	if after := fmt.Sprintf("%+v", *r); after != before {
		t.Errorf("a captured Result changed when its system ran on:\n%s\n%s", before, after)
	}
	if s.Result().FullSystemPJ() == r.FullSystemPJ() {
		t.Error("the system's later capture did not move")
	}
}

// TestResultCheckerCatchesBrokenIdentities breaks one counter or energy
// per case and requires the checker to report it.
func TestResultCheckerCatchesBrokenIdentities(t *testing.T) {
	const measured = 60_000
	fresh := func() *Result {
		return warmRun(Config{Policy: SLIPABP, Seed: 7}, 60_000, measured).Result()
	}
	for name, corrupt := range map[string]func(r *Result){
		"L2 hits":            func(r *Result) { r.Cores[0].L2.Hits.Inc() },
		"L1 accesses":        func(r *Result) { r.Cores[0].L1.Accesses.Inc() },
		"L3 misses":          func(r *Result) { r.L3.Misses.Inc() },
		"L2 demand misses":   func(r *Result) { r.L2DemandMisses++ },
		"L3 metadata misses": func(r *Result) { r.L3MetaMisses++ },
		"DRAM reads":         func(r *Result) { r.DRAM.Reads.Inc() },
		"DRAM metadata":      func(r *Result) { r.DRAM.MetadataReads.Inc() },
		"NR histogram":       func(r *Result) { r.NRHist[2]++ },
		"non-finite energy":  func(r *Result) { r.Config.Core.PJPerInstr = math.NaN() },
		"negative energy":    func(r *Result) { r.Config.Core.PJPerInstr = -1 },
	} {
		r := fresh()
		corrupt(r)
		if r.CheckWindow(measured) == nil {
			t.Errorf("%s: the checker reported nothing", name)
		}
	}
	sampled := warmRun(Config{Policy: SLIPABP, Seed: 7, SampleK: 8, SampleMask: sampleMaskLow(8)}, 60_000, measured).Result()
	sampled.SkippedAccesses++
	if sampled.CheckWindow(measured) == nil {
		t.Error("sampled + skipped != driven passes")
	}
	sampled.SkippedAccesses--
	sampled.SampledAccesses++
	if sampled.CheckInvariants() == nil {
		t.Error("L1 accesses != sampled accesses passes")
	}
}
