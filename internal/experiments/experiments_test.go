package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hier"
)

// smallSuite builds a fast suite over a representative benchmark subset.
func smallSuite(benches ...string) *Suite {
	if len(benches) == 0 {
		benches = []string{"soplex", "milc", "sphinx3"}
	}
	return NewSuite(Options{
		Accesses:   150_000,
		Warmup:     150_000,
		Seed:       7,
		Benchmarks: benches,
	})
}

// shared is a package-wide medium-horizon suite: long enough for the
// time-based sampling machinery to reach steady state (pages need tens of
// TLB misses to classify), shared across tests so each simulation runs
// once.
var shared = NewSuite(Options{
	Accesses:   500_000,
	Warmup:     900_000,
	Seed:       7,
	Benchmarks: []string{"soplex", "milc", "sphinx3"},
})

func TestFig1Shape(t *testing.T) {
	s := smallSuite("soplex", "omnetpp")
	s.opts.Benchmarks = []string{"soplex", "omnetpp"}
	res := s.Fig1()
	// Figure 1's claim: most lines see no reuse, and the reuse histogram
	// decays (NR=0 > NR=1 > the rest).
	if res.Average[0] < 0.5 {
		t.Errorf("NR=0 average = %.2f, want > 0.5", res.Average[0])
	}
	if res.Average[0] < res.Average[1] {
		t.Error("NR=0 must dominate NR=1")
	}
	for name, fr := range res.Rows {
		sum := fr[0] + fr[1] + fr[2] + fr[3]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: NR fractions sum to %v", name, sum)
		}
	}
}

// TestFig1RendersAgree renders Figure 1 twice on one suite. Rendering only
// reads the memoized baseline runs, so the second render must print the
// first one's rows: counting the resident L3 lines must not write them
// into the runs' histograms.
func TestFig1RendersAgree(t *testing.T) {
	s := NewSuite(Options{Accesses: 100_000, Warmup: 100_000, Seed: 7})
	first, second := s.Fig1(), s.Fig1()
	for name, row := range first.Rows {
		if second.Rows[name] != row {
			t.Errorf("%s: second render %v, first %v", name, second.Rows[name], row)
		}
	}
	if second.Average != first.Average {
		t.Errorf("average: second render %v, first %v", second.Average, first.Average)
	}
}

func TestFig3Classes(t *testing.T) {
	// Figure 3 needs a horizon long enough to span several of soplex's
	// long rotate segments (each up to two walks of ~32K lines).
	s := NewSuite(Options{Accesses: 800_000, Warmup: 0, WarmupSet: true,
		Seed: 7, Benchmarks: []string{"soplex"}})
	res := s.Fig3()
	perm, ok := res.Classes["rperm (permutation lookups)"]
	if !ok {
		t.Fatalf("missing class: %v", res.Classes)
	}
	// Permutation lookups almost always miss.
	if perm[3] < 0.8 {
		t.Errorf("rperm miss fraction = %.2f, want > 0.8", perm[3])
	}
	// The rotate loops have a substantial near-reuse component plus a
	// large miss tail (the bimodal Figure 3 shape).
	rot := res.Classes["rorig/corig (rotate loops)"]
	if rot[0] < 0.04 || rot[3] < 0.2 {
		t.Errorf("rotate class = %v, want near mass and a miss tail", rot)
	}
}

func TestTable2WithinTolerance(t *testing.T) {
	s := smallSuite()
	if res := s.Table2(); res.MaxRelErr > 0.03 {
		t.Errorf("energy model deviates %.1f%% from Table 2 presets", 100*res.MaxRelErr)
	}
}

func TestHTreeOverheadPositiveAndPerformanceNeutral(t *testing.T) {
	s := smallSuite("milc")
	res := s.HTree()
	if res.L2OverheadPct < 15 || res.L2OverheadPct > 60 {
		t.Errorf("L2 H-tree overhead = %.1f%%, want roughly +37%%", res.L2OverheadPct)
	}
	if res.L3OverheadPct < 15 || res.L3OverheadPct > 60 {
		t.Errorf("L3 H-tree overhead = %.1f%%, want roughly +32%%", res.L3OverheadPct)
	}
	if res.SpeedupPct > 1 || res.SpeedupPct < -1 {
		t.Errorf("H-tree should be performance neutral, got %.2f%%", res.SpeedupPct)
	}
}

func TestFig9Shape(t *testing.T) {
	res := shared.Fig9()
	// SLIP+ABP must save energy at both levels; the NUCA promoters must
	// cost energy at both levels (the paper's headline comparison).
	if res.AvgL2[hier.SLIPABP] <= 0 || res.AvgL3[hier.SLIPABP] <= 0 {
		t.Errorf("SLIP+ABP savings = %.1f%% / %.1f%%, want positive",
			res.AvgL2[hier.SLIPABP], res.AvgL3[hier.SLIPABP])
	}
	if res.AvgL2[hier.NuRAPID] >= 0 || res.AvgL3[hier.NuRAPID] >= 0 {
		t.Errorf("NuRAPID savings = %.1f%% / %.1f%%, want negative",
			res.AvgL2[hier.NuRAPID], res.AvgL3[hier.NuRAPID])
	}
	if res.AvgL2[hier.LRUPEA] >= 0 || res.AvgL3[hier.LRUPEA] >= 0 {
		t.Errorf("LRU-PEA savings = %.1f%% / %.1f%%, want negative",
			res.AvgL2[hier.LRUPEA], res.AvgL3[hier.LRUPEA])
	}
	// Adding ABP can only help (more candidate policies).
	if res.AvgL2[hier.SLIPABP] < res.AvgL2[hier.SLIP] {
		t.Error("ABP made L2 savings worse on average")
	}
	// Bands of ±max(2 points, 10% of the value) around the averages this
	// deterministic suite produces (%, L2 and L3): a silent drift fails,
	// while a small deliberate model change need not re-pin them.
	for p, want := range map[hier.PolicyKind][2]float64{
		hier.SLIPABP: {41.78, 6.92},
		hier.SLIP:    {7.51, -6.29},
		hier.NuRAPID: {-105.49, -126.42},
		hier.LRUPEA:  {-90.75, -74.90},
	} {
		for i, got := range []float64{res.AvgL2[p], res.AvgL3[p]} {
			if tol := max(2, math.Abs(want[i])/10); math.Abs(got-want[i]) > tol {
				t.Errorf("%s L%d saving = %.2f%%, want %.2f ± %.2f", p, i+2, got, want[i], tol)
			}
		}
	}
}

func TestFig10FullSystem(t *testing.T) {
	res := shared.Fig10()
	if res.Avg[hier.SLIPABP] <= -1 {
		t.Errorf("full-system savings = %.2f%%, want non-negative", res.Avg[hier.SLIPABP])
	}
	// Full-system savings are far smaller than cache-level savings.
	if res.Avg[hier.SLIPABP] > 20 {
		t.Errorf("full-system savings = %.2f%% implausibly large", res.Avg[hier.SLIPABP])
	}
}

func TestFig11MovementDominatesForNUCA(t *testing.T) {
	s := shared
	res := s.Fig11()
	// Baseline normalizes to ~1.0 total.
	baseTotal := res.L2Access[hier.Baseline] + res.L2Movement[hier.Baseline]
	if baseTotal < 0.99 || baseTotal > 1.01 {
		t.Errorf("baseline normalized total = %v, want 1", baseTotal)
	}
	// NUCA promoters pay far more movement energy than the baseline.
	if res.L2Movement[hier.NuRAPID] <= res.L2Movement[hier.Baseline] {
		t.Error("NuRAPID movement energy not above baseline")
	}
	// SLIP optimizes the sum.
	slipTotal := res.L2Access[hier.SLIPABP] + res.L2Movement[hier.SLIPABP]
	if slipTotal >= baseTotal {
		t.Errorf("SLIP+ABP normalized L2 total = %v, want < 1", slipTotal)
	}
}

func TestFig12MetadataBounded(t *testing.T) {
	s := smallSuite("soplex", "milc")
	res := s.Fig12()
	if res.AvgDRAMOverheadPct > 5 {
		t.Errorf("metadata share of DRAM traffic = %.2f%%, want small", res.AvgDRAMOverheadPct)
	}
	for p, rows := range res.L2Meta {
		for name, v := range rows {
			if v < 0 {
				t.Errorf("%v/%s: negative metadata misses", p, name)
			}
		}
	}
}

func TestFig13SpeedupsSmall(t *testing.T) {
	res := shared.Fig13()
	for _, p := range evalPolicies {
		if avg := res.Avg[p]; avg < -10 || avg > 10 {
			t.Errorf("%v speedup = %.2f%%, implausible", p, avg)
		}
	}
}

func TestFig14ClassesSumToOne(t *testing.T) {
	res := shared.Fig14()
	for name, f := range res.L2 {
		sum := f[0] + f[1] + f[2] + f[3]
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: L2 class fractions sum to %v", name, sum)
		}
	}
	// More bypassing at L2 than L3 (the DRAM miss penalty dwarfs the
	// L2->L3 one, Section 6).
	if res.AvgL2[0] < res.AvgL3[0] {
		t.Errorf("L2 ABP share %.2f below L3 share %.2f", res.AvgL2[0], res.AvgL3[0])
	}
}

func TestFig15NearSublevelShare(t *testing.T) {
	res := shared.Fig15()
	// Figure 15's strongest claim holds for the promotion policies: they
	// aggressively concentrate hits in sublevel 0.
	base := res.L2[hier.Baseline][0]
	for _, p := range []hier.PolicyKind{hier.NuRAPID, hier.LRUPEA} {
		if res.L2[p][0] <= base {
			t.Errorf("%v sublevel-0 share %.2f not above baseline %.2f", p, res.L2[p][0], base)
		}
	}
	// SLIP trades some near-hit share for insertion energy (it never
	// promotes), so it only needs to stay in the baseline's neighbourhood;
	// see EXPERIMENTS.md for the deviation discussion.
	for _, p := range []hier.PolicyKind{hier.SLIP, hier.SLIPABP} {
		if res.L2[p][0] < base-0.15 {
			t.Errorf("%v sublevel-0 share %.2f far below baseline %.2f", p, res.L2[p][0], base)
		}
	}
}

func TestFig16Multicore(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore sweep is slow")
	}
	s := NewSuite(Options{Accesses: 300_000, Warmup: 500_000, Seed: 7})
	res := s.Fig16()
	if res.AvgL3 <= 0 {
		t.Errorf("multicore L3 savings = %.1f%%, want positive", res.AvgL3)
	}
	if len(res.L3Savings) != 8 {
		t.Errorf("expected 8 mixes, got %d", len(res.L3Savings))
	}
}

func TestTech22SavesMore(t *testing.T) {
	s := NewSuite(Options{Accesses: 500_000, Warmup: 900_000, Seed: 7,
		Benchmarks: []string{"soplex", "milc"}})
	res := s.Tech22()
	if res.AvgL2Savings <= 0 || res.AvgL3Savings <= 0 {
		t.Errorf("22nm savings = %.1f%%/%.1f%%, want positive", res.AvgL2Savings, res.AvgL3Savings)
	}
}

func TestBinWidth4BitsNearWider(t *testing.T) {
	s := smallSuite("soplex", "milc")
	res := s.BinWidth()
	// Section 6: 4-bit counters perform close to wider ones...
	if diff := res.SavingsByBits[8] - res.SavingsByBits[4]; diff > 8 {
		t.Errorf("4b vs 8b savings gap = %.1f points, want small", diff)
	}
	// ...and the 2-bit variant must not beat 4 bits materially.
	if res.SavingsByBits[2] > res.SavingsByBits[4]+5 {
		t.Errorf("2b savings %.1f%% exceed 4b %.1f%%", res.SavingsByBits[2], res.SavingsByBits[4])
	}
}

func TestSamplingReducesMetadata(t *testing.T) {
	s := smallSuite("xalancbmk")
	res := s.Sampling()
	if res.WithSamplingPct >= res.WithoutSamplingPct {
		t.Errorf("sampling metadata %.2f%% not below always-on %.2f%%",
			res.WithSamplingPct, res.WithoutSamplingPct)
	}
}

func TestSuiteMemoizesRuns(t *testing.T) {
	s := smallSuite("milc")
	a := s.Run("milc", hier.Baseline)
	b := s.Run("milc", hier.Baseline)
	if a != b {
		t.Error("identical runs not memoized")
	}
}

func TestSuitePanicsOnUnknownWorkload(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown workload did not panic")
		}
	}()
	smallSuite().Run("nonesuch", hier.Baseline)
}

func TestTablesPrinted(t *testing.T) {
	var sb strings.Builder
	s := NewSuite(Options{
		Accesses: 50_000, Warmup: 50_000, Seed: 7,
		Benchmarks: []string{"milc"}, Out: &sb,
	})
	s.Table2()
	s.Fig10()
	out := sb.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Figure 10") {
		t.Errorf("expected printed tables, got:\n%s", out)
	}
}
