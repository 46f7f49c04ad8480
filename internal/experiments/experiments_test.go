package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workloads"
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
	tb := s.Fig1()
	// Figure 1's claim: most lines see no reuse, and the reuse histogram
	// decays (NR=0 > NR=1 > the rest).
	if nr0 := tb.Value("average", "NR=0"); nr0 < 50 {
		t.Errorf("NR=0 average = %.1f%%, want > 50%%", nr0)
	}
	if tb.Value("average", "NR=0") < tb.Value("average", "NR=1") {
		t.Error("NR=0 must dominate NR=1")
	}
	for _, name := range workloads.Fig1Set() {
		sum := 0.0
		for _, col := range tb.Columns[1:] {
			sum += tb.Value(name, col)
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: NR percentages sum to %v", name, sum)
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
	for _, name := range append(workloads.Fig1Set(), "average") {
		for _, col := range first.Columns[1:] {
			if a, b := first.Value(name, col), second.Value(name, col); a != b {
				t.Errorf("%s %s: second render %v, first %v", name, col, b, a)
			}
		}
	}
}

func TestFig3Classes(t *testing.T) {
	// Figure 3 needs a horizon long enough to span several of soplex's
	// long rotate segments (each up to two walks of ~32K lines).
	s := NewSuite(Options{Accesses: 800_000, Warmup: 0, WarmupSet: true,
		Seed: 7, Benchmarks: []string{"soplex"}})
	tb := s.Fig3()
	// Permutation lookups almost always miss.
	if miss := tb.Value("rperm (permutation lookups)", ">256K/miss"); miss < 80 {
		t.Errorf("rperm miss share = %.1f%%, want > 80%%", miss)
	}
	// The rotate loops have a substantial near-reuse component plus a
	// large miss tail (the bimodal Figure 3 shape).
	const rot = "rorig/corig (rotate loops)"
	if near, miss := tb.Value(rot, "<=64K"), tb.Value(rot, ">256K/miss"); near < 4 || miss < 20 {
		t.Errorf("rotate class = %.1f%% near, %.1f%% miss, want near mass and a miss tail", near, miss)
	}
}

func TestTable2WithinTolerance(t *testing.T) {
	s := smallSuite()
	if maxErr := s.Table2(); maxErr > 0.03 {
		t.Errorf("energy model deviates %.1f%% from Table 2 presets", 100*maxErr)
	}
}

func TestHTreeOverheadPositiveAndPerformanceNeutral(t *testing.T) {
	s := smallSuite("milc")
	tb, speedup := s.HTree()
	if l2 := tb.Value("average", "L2 overhead"); l2 < 15 || l2 > 60 {
		t.Errorf("L2 H-tree overhead = %.1f%%, want roughly +37%%", l2)
	}
	if l3 := tb.Value("average", "L3 overhead"); l3 < 15 || l3 > 60 {
		t.Errorf("L3 H-tree overhead = %.1f%%, want roughly +32%%", l3)
	}
	if speedup > 1 || speedup < -1 {
		t.Errorf("H-tree should be performance neutral, got %.2f%%", speedup)
	}
}

func TestFig9Shape(t *testing.T) {
	l2, l3 := shared.Fig9()
	avg := func(p string) (float64, float64) { return l2.Value("average", p), l3.Value("average", p) }
	// SLIP+ABP must save energy at both levels; the NUCA promoters must
	// cost energy at both levels (the paper's headline comparison).
	if a2, a3 := avg("SLIP+ABP"); a2 <= 0 || a3 <= 0 {
		t.Errorf("SLIP+ABP savings = %.1f%% / %.1f%%, want positive", a2, a3)
	}
	for _, p := range []string{"NuRAPID", "LRU-PEA"} {
		if a2, a3 := avg(p); a2 >= 0 || a3 >= 0 {
			t.Errorf("%s savings = %.1f%% / %.1f%%, want negative", p, a2, a3)
		}
	}
	// Adding ABP can only help (more candidate policies).
	if l2.Value("average", "SLIP+ABP") < l2.Value("average", "SLIP") {
		t.Error("ABP made L2 savings worse on average")
	}
	// Bands of ±max(2 points, 10% of the value) around the averages this
	// deterministic suite produces (%, L2 and L3): a silent drift fails,
	// while a small deliberate model change need not re-pin them.
	for p, want := range map[string][2]float64{
		"SLIP+ABP": {41.78, 6.92},
		"SLIP":     {7.51, -6.29},
		"NuRAPID":  {-105.49, -126.42},
		"LRU-PEA":  {-90.75, -74.90},
	} {
		a2, a3 := avg(p)
		for i, got := range []float64{a2, a3} {
			if tol := max(2, math.Abs(want[i])/10); math.Abs(got-want[i]) > tol {
				t.Errorf("%s L%d saving = %.2f%%, want %.2f ± %.2f", p, i+2, got, want[i], tol)
			}
		}
	}
}

func TestFig10FullSystem(t *testing.T) {
	avg := shared.Fig10().Value("average", "SLIP+ABP")
	if avg <= -1 {
		t.Errorf("full-system savings = %.2f%%, want non-negative", avg)
	}
	// Full-system savings are far smaller than cache-level savings.
	if avg > 20 {
		t.Errorf("full-system savings = %.2f%% implausibly large", avg)
	}
}

func TestFig11MovementDominatesForNUCA(t *testing.T) {
	tb := shared.Fig11()
	l2Total := func(p hier.PolicyKind) float64 {
		return tb.Value(p.String(), "L2 access") + tb.Value(p.String(), "L2 movement")
	}
	// Baseline normalizes to ~1.0 total.
	baseTotal := l2Total(hier.Baseline)
	if baseTotal < 0.99 || baseTotal > 1.01 {
		t.Errorf("baseline normalized total = %v, want 1", baseTotal)
	}
	// NUCA promoters pay far more movement energy than the baseline.
	if tb.Value(hier.NuRAPID.String(), "L2 movement") <= tb.Value(hier.Baseline.String(), "L2 movement") {
		t.Error("NuRAPID movement energy not above baseline")
	}
	// SLIP optimizes the sum.
	if slipTotal := l2Total(hier.SLIPABP); slipTotal >= baseTotal {
		t.Errorf("SLIP+ABP normalized L2 total = %v, want < 1", slipTotal)
	}
}

func TestFig12MetadataBounded(t *testing.T) {
	s := smallSuite("soplex", "milc")
	_, dram := s.Fig12()
	if share := dram.Value("average", "SLIP+ABP metadata share"); share > 5 {
		t.Errorf("metadata share of DRAM traffic = %.2f%%, want small", share)
	}
	// Every SLIP run fetches distribution records through the L2, which
	// never allocates them, so each run has L2 metadata misses.
	for _, name := range s.Options().Benchmarks {
		for _, p := range slipPolicies {
			if run := s.Run(name, p); run.L2Misses(true) <= run.L2Misses(false) {
				t.Errorf("%v/%s: %d L2 misses with metadata, %d without; want metadata misses",
					p, name, run.L2Misses(true), run.L2Misses(false))
			}
		}
	}
}

func TestFig13SpeedupsSmall(t *testing.T) {
	tb := shared.Fig13()
	for _, p := range evalColumns[1:] {
		if avg := tb.Value("average", p); avg < -10 || avg > 10 {
			t.Errorf("%v speedup = %.2f%%, implausible", p, avg)
		}
	}
}

func TestFig14ClassesSumToOne(t *testing.T) {
	tb := shared.Fig14()
	for _, name := range shared.Options().Benchmarks {
		sum := 0.0
		for _, col := range []string{"L2 ABP", "L2 partial", "L2 default", "L2 other"} {
			sum += tb.Value(name, col)
		}
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: L2 class percentages sum to %v", name, sum)
		}
	}
	// More bypassing at L2 than L3 (the DRAM miss penalty dwarfs the
	// L2->L3 one, Section 6).
	if l2, l3 := tb.Value("average", "L2 ABP"), tb.Value("average", "L3 ABP"); l2 < l3 {
		t.Errorf("L2 ABP share %.1f%% below L3 share %.1f%%", l2, l3)
	}
}

func TestFig15NearSublevelShare(t *testing.T) {
	tb := shared.Fig15()
	s0 := func(p hier.PolicyKind) float64 { return tb.Value(p.String(), "L2 s0") }
	// Figure 15's strongest claim holds for the promotion policies: they
	// aggressively concentrate hits in sublevel 0.
	base := s0(hier.Baseline)
	for _, p := range []hier.PolicyKind{hier.NuRAPID, hier.LRUPEA} {
		if s0(p) <= base {
			t.Errorf("%v sublevel-0 share %.1f%% not above baseline %.1f%%", p, s0(p), base)
		}
	}
	// SLIP trades some near-hit share for insertion energy (it never
	// promotes), so it only needs to stay in the baseline's neighbourhood;
	// see EXPERIMENTS.md for the deviation discussion.
	for _, p := range slipPolicies {
		if s0(p) < base-15 {
			t.Errorf("%v sublevel-0 share %.1f%% far below baseline %.1f%%", p, s0(p), base)
		}
	}
}

func TestFig16Multicore(t *testing.T) {
	if testing.Short() {
		t.Skip("multicore sweep is slow")
	}
	s := NewSuite(Options{Accesses: 300_000, Warmup: 500_000, Seed: 7})
	tb := s.Fig16()
	if avg := tb.Value("average", "L3 savings"); avg <= 0 {
		t.Errorf("multicore L3 savings = %.1f%%, want positive", avg)
	}
	if mixes := tb.NumRows() - 1; mixes != 8 {
		t.Errorf("expected 8 mixes, got %d", mixes)
	}
}

func TestTech22SavesMore(t *testing.T) {
	s := NewSuite(Options{Accesses: 500_000, Warmup: 900_000, Seed: 7,
		Benchmarks: []string{"soplex", "milc"}})
	tb := s.Tech22()
	if l2, l3 := tb.Value("average", "L2 savings"), tb.Value("average", "L3 savings"); l2 <= 0 || l3 <= 0 {
		t.Errorf("22nm savings = %.1f%%/%.1f%%, want positive", l2, l3)
	}
}

func TestBinWidth4BitsNearWider(t *testing.T) {
	s := smallSuite("soplex", "milc")
	tb := s.BinWidth()
	savings := func(bits string) float64 { return tb.Value(bits, "savings") }
	// Section 6: 4-bit counters perform close to wider ones...
	if diff := savings("8") - savings("4"); diff > 8 {
		t.Errorf("4b vs 8b savings gap = %.1f points, want small", diff)
	}
	// ...and the 2-bit variant must not beat 4 bits materially.
	if savings("2") > savings("4")+5 {
		t.Errorf("2b savings %.1f%% exceed 4b %.1f%%", savings("2"), savings("4"))
	}
}

func TestSamplingReducesMetadata(t *testing.T) {
	s := smallSuite("xalancbmk")
	tb := s.Sampling()
	with, without := tb.Value("average", "meta share of L2 accesses (sampled)"), tb.Value("average", "(always)")
	if with >= without {
		t.Errorf("sampling metadata %.2f%% not below always-on %.2f%%", with, without)
	}
}

// TestPoliciesRows checks the policies experiment's result: one row per
// policy of hier's table, in table order; each row's energy mean taken
// over its runs; and savings of the means against the baseline row's,
// which saves 0%.
func TestPoliciesRows(t *testing.T) {
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc", "sphinx3"},
	})
	rows := s.Policies()
	pols := hier.AllPolicies()
	if len(rows) != len(pols) {
		t.Fatalf("%d rows, want one per policy of the table (%d)", len(rows), len(pols))
	}
	var base PolicyRow
	for _, r := range rows {
		if r.Policy == hier.Baseline {
			base = r
		}
	}
	if base.MeanEnergyUJ <= 0 || base.MeanEDP <= 0 {
		t.Fatalf("baseline row has no energy or EDP: %+v", base)
	}
	for i, r := range rows {
		if r.Policy != pols[i] {
			t.Errorf("row %d is %v, want %v", i, r.Policy, pols[i])
		}
		var energy []float64
		for _, wl := range s.Options().Benchmarks {
			energy = append(energy, s.Run(wl, r.Policy).ScaledFullSystemPJ()/1e6)
		}
		if want := stats.Mean(energy); r.MeanEnergyUJ != want {
			t.Errorf("%v: mean energy %v uJ, want %v from its runs", r.Policy, r.MeanEnergyUJ, want)
		}
		if want := stats.Savings(base.MeanEnergyUJ, r.MeanEnergyUJ); r.EnergySavePct != want {
			t.Errorf("%v: energy saving %v%%, want %v%% of the means", r.Policy, r.EnergySavePct, want)
		}
		if want := stats.Savings(base.MeanEDP, r.MeanEDP); r.EDPSavePct != want {
			t.Errorf("%v: EDP saving %v%%, want %v%% of the means", r.Policy, r.EDPSavePct, want)
		}
	}
	if base.EnergySavePct != 0 || base.EDPSavePct != 0 {
		t.Errorf("baseline saves %v%% energy and %v%% EDP against itself, want 0", base.EnergySavePct, base.EDPSavePct)
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
