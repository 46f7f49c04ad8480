package experiments

import (
	"repro/internal/hier"
	"repro/internal/stats"
)

// Fig12 reproduces Figure 12: L2 and L3 miss traffic (demand plus
// distribution metadata) relative to the baseline's demand misses for SLIP
// and SLIP+ABP, plus the DRAM traffic deltas quoted in the text (overall
// reduction ~2%, metadata overhead below 1.5%). misses is the printed
// table; dram holds each policy's DRAM traffic vs baseline and SLIP+ABP's
// metadata share of DRAM traffic, whose average row the line under the
// table prints.
func (s *Suite) Fig12() (misses, dram *stats.Table) {
	misses = benchTable(stats.NewTable("Figure 12: relative miss traffic (percent of baseline; demand + metadata)",
		"bench", "L2 SLIP", "L2 SLIP+ABP", "L3 SLIP", "L3 SLIP+ABP"),
		"%.1f%%", s.opts.Benchmarks, func(name string) []float64 {
			return append(
				s.versusBaseline(name, slipPolicies, func(base, run *hier.Result) float64 {
					return stats.Pct(float64(run.L2Misses(true)), float64(base.L2Misses(false)))
				}),
				s.versusBaseline(name, slipPolicies, func(base, run *hier.Result) float64 {
					return stats.Pct(float64(run.L3Misses(true)), float64(base.L3Misses(false)))
				})...)
		})
	dram = benchTable(stats.NewTable("Figure 12: DRAM traffic (percent of baseline) and its metadata share",
		"bench", "SLIP", "SLIP+ABP", "SLIP+ABP metadata share"),
		"%.2f%%", s.opts.Benchmarks, func(name string) []float64 {
			abp := s.Run(name, hier.SLIPABP)
			return append(
				s.versusBaseline(name, slipPolicies, func(base, run *hier.Result) float64 {
					return stats.Pct(float64(run.DRAMTraffic()), float64(base.DRAMTraffic()))
				}),
				stats.Pct(float64(abp.DRAMTraffic()-abp.DRAMDemandTraffic()), float64(abp.DRAMTraffic())))
		})
	s.printf("%sDRAM traffic vs baseline: SLIP %.1f%%, SLIP+ABP %.1f%%; metadata share of DRAM traffic %.2f%%\n\n",
		misses.String(), dram.Value("average", "SLIP"), dram.Value("average", "SLIP+ABP"),
		dram.Value("average", "SLIP+ABP metadata share"))
	return misses, dram
}

// Fig13 reproduces Figure 13: speedups versus the regular hierarchy (the
// paper reports 0.06% / 0.16% / 0.24% / 0.75% averages — small, with
// SLIP+ABP ahead because bypassing avoids pollution).
func (s *Suite) Fig13() *stats.Table {
	tb := benchTable(stats.NewTable("Figure 13: speedup vs regular hierarchy", evalColumns...),
		"%.2f%%", s.opts.Benchmarks, func(name string) []float64 {
			return s.versusBaseline(name, evalPolicies, func(base, run *hier.Result) float64 {
				return 100 * (base.ScaledMaxCycles()/run.ScaledMaxCycles() - 1)
			})
		})
	s.printf("%s\n", tb.String())
	return tb
}

// Fig14 reproduces Figure 14: the fraction of SLIP+ABP insertions whose
// assigned policy is the All-Bypass Policy, a partial bypass, the Default
// SLIP, or another multi-chunk policy.
func (s *Suite) Fig14() *stats.Table {
	tb := benchTable(stats.NewTable("Figure 14: insertions by SLIP class (SLIP+ABP)",
		"bench", "L2 ABP", "L2 partial", "L2 default", "L2 other",
		"L3 ABP", "L3 partial", "L3 default", "L3 other"),
		"%.1f%%", s.opts.Benchmarks, func(name string) []float64 {
			run := s.Run(name, hier.SLIPABP)
			var row []float64
			for _, level := range []int{2, 3} {
				for _, f := range run.InsertionClassFractions(level) {
					row = append(row, 100*f)
				}
			}
			return row
		})
	s.printf("%s\n", tb.String())
	return tb
}

// Fig15 reproduces Figure 15: all policies shift accesses toward the
// energy-efficient sublevel 0; the NUCA promoters most aggressively — but
// Figure 11 shows they pay more in movement than they save.
func (s *Suite) Fig15() *stats.Table {
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)
	tb := stats.NewTable("Figure 15: hit fractions per sublevel (averaged over benchmarks)",
		"policy", "L2 s0", "L2 s1", "L2 s2", "L3 s0", "L3 s1", "L3 s2")
	n := float64(len(s.opts.Benchmarks))
	for _, p := range pols {
		var v2, v3 [3]float64
		for _, name := range s.opts.Benchmarks {
			run := s.Run(name, p)
			f2 := run.SublevelHitFractions(2)
			f3 := run.SublevelHitFractions(3)
			for i := 0; i < 3; i++ {
				v2[i] += f2[i] / n
				v3[i] += f3[i] / n
			}
		}
		tb.AddRowF(p.String(), "%.1f%%",
			100*v2[0], 100*v2[1], 100*v2[2], 100*v3[0], 100*v3[1], 100*v3[2])
	}
	s.printf("%s\n", tb.String())
	return tb
}
