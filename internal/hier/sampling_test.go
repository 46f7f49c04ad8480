package hier

import (
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/trace"
)

// sampleMaskLow returns the canonical test mask: the low 64/k group bits
// set. Any mask with the right popcount is legal for the engine; spec-level
// selection (internal/spec) derives masks from the spec hash instead.
func sampleMaskLow(k int) uint64 {
	return (uint64(1) << (64 / k)) - 1
}

// digestHash compresses a full stateDigest into a short pinnable token.
func digestHash(s *System) string {
	sum := sha256.Sum256([]byte(stateDigest(s)))
	return fmt.Sprintf("%x", sum[:8])
}

// TestSamplingOffGoldenIdentity pins sampling-off runs to recorded state
// digests, guarding against silent behavioral drift. The pins were
// re-recorded once, when the sequential semantics were deliberately
// revised: per-group level timestamps and replacement/policy clocks
// (group-local reuse distances and victim clocks, same resolution as
// before), per-group LRU-PEA RNG streams, batch-deferred canonical
// folding of page reuse evidence, and integer-derived timing/energy
// primitives. They were recomputed once more, with no behaviour change,
// when the digest stopped printing movement-queue counts (metapj holds
// every lookup charge). The slip, slip+abp and 2-core pins moved once
// more, with no behaviour change, when ResetStats began zeroing the MMU
// counters, so the digest's mmu lines count only the measured window.
// Any other digest change means unintended drift.
func TestSamplingOffGoldenIdentity(t *testing.T) {
	const warm, measured = 120_000, 120_000
	golden := map[string]string{
		"baseline":     "a0a0836698e6ec89",
		"slip":         "6b2f5b65e601424e",
		"slip+abp":     "c3b639b6b9e23569",
		"nurapid":      "7e1b2d34f46a6d6f",
		"lru-pea":      "665b97edb13a40a6",
		"reuse-bypass": "5c89e99824c903c8",
		"lwrp":         "8b9f0827bed029f9",
	}
	for _, p := range allPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			s := New(Config{Policy: p, Seed: 7})
			src := mixedSource(3)
			s.Run(trace.Limit(src, warm))
			s.ResetStats()
			s.Run(trace.Limit(src, measured))
			if got, want := digestHash(s), golden[p.String()]; got != want {
				t.Errorf("digest hash = %s, want pre-change golden %s", got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestSamplingOffGoldenIdentityMix extends the golden pin to the
// multiprogrammed path (two cores sharing the L3). Its pin moved with the
// MMU counter reset, as TestSamplingOffGoldenIdentity's did.
func TestSamplingOffGoldenIdentityMix(t *testing.T) {
	const warm, measured = 120_000, 120_000
	const golden = "b6e5b1dce2d5e4dd"
	s := New(Config{Policy: SLIPABP, NumCores: 2, Seed: 11})
	a, b := mixedSource(5), streamSource(9)
	s.Run(trace.Limit(a, warm), trace.Limit(b, warm))
	s.ResetStats()
	s.Run(trace.Limit(a, measured), trace.Limit(b, measured))
	if got := digestHash(s); got != golden {
		t.Errorf("2-core digest hash = %s, want pre-change golden %s", got, golden)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestSampleKOneIsOff asserts the escape hatch: SampleK == 1 must be the
// identical machine to SampleK == 0, not a degenerate "sample everything"
// mode with different bookkeeping.
func TestSampleKOneIsOff(t *testing.T) {
	run := func(k int) *System {
		s := New(Config{Policy: SLIPABP, Seed: 7, SampleK: k})
		s.Run(trace.Limit(mixedSource(3), 150_000))
		return s
	}
	off, one := run(0), run(1)
	if got, want := stateDigest(one), stateDigest(off); got != want {
		t.Error("SampleK=1 diverged from SampleK=0")
	}
	if one.SampledAccesses != 0 || one.SkippedAccesses != 0 {
		t.Errorf("SampleK=1 touched sampling counters: sampled=%d skipped=%d",
			one.SampledAccesses, one.SkippedAccesses)
	}
	if one.Result().SampleK() != 1 || off.Result().SampleK() != 1 {
		t.Errorf("SampleK() = %d / %d, want 1 / 1", one.Result().SampleK(), off.Result().SampleK())
	}
}

// TestSampledRunAccounting drives a 1/4-sampled run and checks the
// accounting contract: every access is either sampled or skipped, the
// sampled share tracks 1/K, and every Scaled* accessor is exactly the raw
// counter times K (counts) or times float64(K) (energies).
func TestSampledRunAccounting(t *testing.T) {
	const k, n = 4, 400_000
	cfg := Config{Policy: SLIPABP, Seed: 7, SampleK: k, SampleMask: sampleMaskLow(k)}
	s := New(cfg)
	s.Run(trace.Limit(mixedSource(3), n))

	if s.SampledAccesses+s.SkippedAccesses != n {
		t.Fatalf("sampled %d + skipped %d != driven %d",
			s.SampledAccesses, s.SkippedAccesses, n)
	}
	share := float64(s.SampledAccesses) / float64(n)
	if share < 0.15 || share > 0.35 {
		t.Errorf("sampled share = %.3f, want ≈ 1/%d", share, k)
	}

	r := s.Result()

	if got, want := r.ScaledL2Misses(true), r.L2Misses(true)*uint64(k); got != want {
		t.Errorf("ScaledL2Misses = %d, want %d", got, want)
	}
	if got, want := r.ScaledL3Misses(true), r.L3Misses(true)*uint64(k); got != want {
		t.Errorf("ScaledL3Misses = %d, want %d", got, want)
	}
	if got, want := r.ScaledDRAMTraffic(), r.DRAMTraffic()*uint64(k); got != want {
		t.Errorf("ScaledDRAMTraffic = %d, want %d", got, want)
	}
	if got, want := r.ScaledL2TotalPJ(), r.L2TotalPJ()*float64(k); got != want {
		t.Errorf("ScaledL2TotalPJ = %g, want %g", got, want)
	}
	// Cycles: skipped accesses contributed their base-CPI issue cost
	// directly, so only stalls extrapolate.
	if got, want := r.ScaledCycles(0), r.Cycles(0)+float64(k-1)*float64(s.cores[0].stalls()); got != want {
		t.Errorf("ScaledCycles = %g, want %g", got, want)
	}
	for name, v := range map[string]float64{
		"ScaledFullSystemPJ": r.ScaledFullSystemPJ(),
		"ScaledEDP":          r.ScaledEDP(),
		"ScaledMaxCycles":    r.ScaledMaxCycles(),
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s = %v, want finite positive", name, v)
		}
	}
	// Extrapolation must land in the neighborhood of the raw counters
	// times K — it IS the raw counters times K — and of a full-fidelity
	// run; the calibration harness quantifies the latter.
	if r.ScaledFullSystemPJ() <= r.FullSystemPJ() {
		t.Error("scaled energy not above raw sampled energy")
	}
}

// TestSampledSnapshotIdentity proves the warm-state snapshot path
// preserves a sampled run bit-for-bit: straight-through sampled run vs.
// warmup + snapshot + clone + measured window on the clone.
func TestSampledSnapshotIdentity(t *testing.T) {
	const warm, measured = 120_000, 120_000
	const k = 8
	cfg := Config{Policy: SLIPABP, Seed: 7, SampleK: k, SampleMask: sampleMaskLow(k)}

	ref := New(cfg)
	src := mixedSource(3)
	ref.Run(trace.Limit(src, warm))
	ref.ResetStats()
	ref.Run(trace.Limit(src, measured))
	want := stateDigest(ref)
	wantSampled, wantSkipped := ref.SampledAccesses, ref.SkippedAccesses

	warmed := New(cfg)
	w := mixedSource(3)
	warmed.Run(trace.Limit(w, warm))
	warmed.ResetStats()
	clone := warmed.Snapshot().System()
	clone.Run(trace.Limit(drain(mixedSource(3), warm), measured))
	if got := stateDigest(clone); got != want {
		t.Errorf("sampled clone diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	if clone.SampledAccesses != wantSampled || clone.SkippedAccesses != wantSkipped {
		t.Errorf("clone counters sampled=%d skipped=%d, want %d/%d",
			clone.SampledAccesses, clone.SkippedAccesses, wantSampled, wantSkipped)
	}
}

// TestSampleConfigValidation: New must reject masks that disagree with K.
func TestSampleConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("New did not panic")
				}
			}()
			New(cfg)
		})
	}
	mustPanic("wrong popcount", Config{SampleK: 4, SampleMask: 0xFF})
	mustPanic("zero mask", Config{SampleK: 2})
	mustPanic("k not divisor of 64", Config{SampleK: 3, SampleMask: 0x7})
	mustPanic("k too large", Config{SampleK: 128, SampleMask: 1})
}
