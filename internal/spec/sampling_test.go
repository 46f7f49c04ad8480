package spec

import (
	"math"
	"math/bits"
	"testing"

	"repro/internal/hier"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func TestSamplingValidate(t *testing.T) {
	base := Spec{Workload: "milc", Policy: "slip"}
	for _, k := range []int{0, 1, 2, 4, 8, 16} {
		s := base
		s.Sampling = k
		if err := s.Validate(); err != nil {
			t.Errorf("sampling=%d rejected: %v", k, err)
		}
	}
	for _, k := range []int{-1, 3, 5, 6, 7, 32, 64, 100} {
		s := base
		s.Sampling = k
		if err := s.Validate(); err == nil {
			t.Errorf("sampling=%d accepted, want error", k)
		}
	}
}

// TestSamplingHashContract pins the identity rules: sampling=1 is the
// canonical absent form (so every pre-sampling spec keeps its hash), and
// each K > 1 is a distinct simulation with a distinct hash.
func TestSamplingHashContract(t *testing.T) {
	base := Spec{Workload: "milc", Policy: "slip+abp", Accesses: 1_000_000, Seed: 7}

	one := base
	one.Sampling = 1
	if got, want := one.MustHash(), base.MustHash(); got != want {
		t.Errorf("sampling=1 hash %s != unset hash %s", got, want)
	}
	c, err := one.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Sampling != 0 {
		t.Errorf("canonical Sampling = %d, want 0 (absent form)", c.Sampling)
	}

	seen := map[string]int{base.MustHash(): 1}
	for _, k := range []int{2, 4, 8, 16} {
		s := base
		s.Sampling = k
		h := s.MustHash()
		if prev, dup := seen[h]; dup {
			t.Errorf("sampling=%d collides with sampling=%d: %s", k, prev, h)
		}
		seen[h] = k
		if v := s.Variant(); v == "" {
			t.Errorf("sampling=%d: Variant is empty, sampled runs must be labeled", k)
		}
	}
}

// TestSampleSelectionGolden pins the chosen set groups for one fixed spec
// at every K. These masks are a pure function of the spec hash; if this
// test breaks, every stored sampled result silently changes meaning —
// bump the "|sample-v1" domain tag instead of editing the goldens.
func TestSampleSelectionGolden(t *testing.T) {
	base := Spec{Workload: "milc", Policy: "slip+abp", Accesses: 1_000_000, Seed: 7}
	golden := map[int]uint64{
		2:  0x7d4049c3ffd032b2,
		4:  0x0013c80924445402,
		8:  0xc484800100080000,
		16: 0x0000002040004080,
	}
	for k, want := range golden {
		s := base
		s.Sampling = k
		kk, mask, err := s.SampleSelection()
		if err != nil {
			t.Fatalf("sampling=%d: %v", k, err)
		}
		if kk != k {
			t.Errorf("sampling=%d: SampleSelection K = %d", k, kk)
		}
		if mask != want {
			t.Errorf("sampling=%d: mask = %#016x, want golden %#016x", k, mask, want)
		}
	}
}

func TestSampleSelectionProperties(t *testing.T) {
	// Warmup is pinned: leaving it unset would let Canonical default it
	// from Accesses, and warmup IS part of the warm identity the
	// selection keys on.
	base := Spec{Workload: "soplex", Policy: "slip", Accesses: 500_000, Warmup: uptr(200_000), Seed: 3}

	// Full fidelity: no mask.
	if k, mask, err := base.SampleSelection(); err != nil || k != 1 || mask != 0 {
		t.Errorf("unset sampling: got (%d, %#x, %v), want (1, 0, nil)", k, mask, err)
	}

	for _, k := range []int{2, 4, 8, 16} {
		s := base
		s.Sampling = k

		_, mask, err := s.SampleSelection()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bits.OnesCount64(mask), SampleGroups/k; got != want {
			t.Errorf("sampling=%d: popcount = %d, want %d", k, got, want)
		}

		// Repeated selection is bit-stable: the permutation is driven by
		// splitmix64 over a hash-derived seed — no maps, no host state —
		// so iteration order cannot leak in.
		for i := 0; i < 64; i++ {
			if _, again, _ := s.SampleSelection(); again != mask {
				t.Fatalf("sampling=%d: selection not deterministic (call %d)", k, i)
			}
		}

		// The measured window is projected out (exactly like the warm
		// cache key), so a warm snapshot and every measured window that
		// restores it sample the same sets.
		wide := s
		wide.Accesses = 50_000_000
		if _, m, _ := wide.SampleSelection(); m != mask {
			t.Errorf("sampling=%d: mask depends on Accesses", k)
		}

		// The seed is part of the warm identity, so it reselects.
		reseeded := s
		reseeded.Seed = 4
		if _, m, _ := reseeded.SampleSelection(); m == mask {
			t.Errorf("sampling=%d: mask ignored the seed", k)
		}
	}
}

// TestSamplingBuild checks the spec → engine wiring: Build stamps the
// factor and mask into the hier config, and leaves full-fidelity specs
// untouched.
func TestSamplingBuild(t *testing.T) {
	base := Spec{Workload: "mcf", Policy: "lru-pea", Seed: 9}
	cfg, err := base.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SampleK != 0 || cfg.SampleMask != 0 {
		t.Errorf("full-fidelity Build set SampleK=%d mask=%#x", cfg.SampleK, cfg.SampleMask)
	}

	s := base
	s.Sampling = 8
	cfg, err = s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SampleK != 8 {
		t.Errorf("Build SampleK = %d, want 8", cfg.SampleK)
	}
	if got := bits.OnesCount64(cfg.SampleMask); got != 8 {
		t.Errorf("Build mask popcount = %d, want 8", got)
	}
	_, wantMask, _ := s.SampleSelection()
	if cfg.SampleMask != wantMask {
		t.Errorf("Build mask %#x != SampleSelection mask %#x", cfg.SampleMask, wantMask)
	}
}

// samplingKs is the fuzz domain: index → sampling factor.
var samplingKs = [...]int{1, 2, 4, 8, 16}

// FuzzSampledScaledStats drives one workload × policy × seed across every
// sampling factor and asserts the extrapolation contract: every Result
// holds the counter identities of its window, instruction counts are
// exact at any K, raw counters partition the driven accesses, scaled
// statistics stay finite and non-negative, and the sampled access count
// is monotone non-increasing in K.
func FuzzSampledScaledStats(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint64(7))
	f.Add(uint8(1), uint8(2), uint64(3))
	f.Add(uint8(3), uint8(4), uint64(11))
	f.Add(uint8(5), uint8(1), uint64(1))
	f.Add(uint8(250), uint8(99), uint64(123456789))

	wls := workloads.Names()
	pols := hier.PolicyNames()

	f.Fuzz(func(t *testing.T, wlIdx, polIdx uint8, seed uint64) {
		const warm, measured = 30_000, 30_000
		wl := wls[int(wlIdx)%len(wls)]
		pol := pols[int(polIdx)%len(pols)]
		if seed == 0 {
			seed = 1 // canonicalization would stamp the default seed
		}

		var prevSampled, fullInstrs uint64
		for i, k := range samplingKs {
			sp := Spec{Workload: wl, Policy: pol, Accesses: measured, Seed: seed, Sampling: k}
			cfg, err := sp.Build()
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			sys := hier.New(cfg)
			w, ok := workloads.ByName(wl)
			if !ok {
				t.Fatalf("workload %q vanished", wl)
			}
			src := w.Build(seed)
			sys.Run(trace.Limit(src, warm))
			sys.ResetStats()
			sys.Run(trace.Limit(src, measured))
			r := sys.Result()
			if err := r.CheckWindow(measured); err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}

			if k == 1 {
				if sys.SampledAccesses != 0 || sys.SkippedAccesses != 0 {
					t.Fatalf("k=1 touched sampling counters")
				}
			} else {
				if sys.SampledAccesses+sys.SkippedAccesses != measured {
					t.Fatalf("k=%d: sampled %d + skipped %d != %d",
						k, sys.SampledAccesses, sys.SkippedAccesses, measured)
				}
				if samplingKs[i-1] > 1 && sys.SampledAccesses > prevSampled {
					t.Fatalf("k=%d sampled %d accesses, more than k=%d's %d",
						k, sys.SampledAccesses, samplingKs[i-1], prevSampled)
				}
			}
			if k > 1 {
				prevSampled = sys.SampledAccesses
			}

			// Instruction counts never extrapolate: skipped accesses still
			// retire their instructions, so every K sees the full-fidelity
			// instruction count exactly.
			if k == 1 {
				fullInstrs = r.TotalInstrs()
				if fullInstrs == 0 {
					t.Fatal("no instructions retired")
				}
			} else if got := r.TotalInstrs(); got != fullInstrs {
				t.Fatalf("k=%d: instrs %d != full-fidelity %d", k, got, fullInstrs)
			}

			for name, v := range map[string]float64{
				"ScaledMaxCycles":    r.ScaledMaxCycles(),
				"ScaledFullSystemPJ": r.ScaledFullSystemPJ(),
				"ScaledEDP":          r.ScaledEDP(),
				"ScaledL1TotalPJ":    r.ScaledL1TotalPJ(),
				"ScaledL2TotalPJ":    r.ScaledL2TotalPJ(),
				"ScaledL3TotalPJ":    r.ScaledL3TotalPJ(),
				"ScaledDRAMPJ":       r.ScaledDRAMPJ(),
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("k=%d: %s = %v, want finite non-negative", k, name, v)
				}
			}
			if r.ScaledMaxCycles() < r.MaxCycles() {
				t.Fatalf("k=%d: scaled cycles %v below raw %v",
					k, r.ScaledMaxCycles(), r.MaxCycles())
			}
		}
	})
}
