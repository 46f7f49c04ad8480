package experiments

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig16 reproduces Figure 16: eight two-benchmark mixes on a system with
// private 256KB L2s and a shared 2MB L3, comparing SLIP+ABP against the
// baseline. Shared-LLC reuse distances grow, so more lines bypass and the
// L3 savings exceed the single-core result.
func (s *Suite) Fig16() *stats.Table {
	var names []string
	mixes := map[string]workloads.Mix{}
	for _, m := range workloads.Mixes() {
		names = append(names, m.Name())
		mixes[m.Name()] = m
	}
	tb := benchTable(stats.NewTable("Figure 16: multiprogrammed mixes (SLIP+ABP vs baseline, shared L3)",
		"mix", "L3 savings", "L2+L3 savings", "DRAM traffic reduction"),
		"%.1f%%", names, func(name string) []float64 {
			base := s.RunMix(mixes[name], hier.Baseline)
			abp := s.RunMix(mixes[name], hier.SLIPABP)
			return []float64{
				stats.Savings(base.L3TotalPJ(), abp.L3TotalPJ()),
				stats.Savings(base.L2TotalPJ()+base.L3TotalPJ(), abp.L2TotalPJ()+abp.L3TotalPJ()),
				stats.Savings(float64(base.DRAMTraffic()), float64(abp.DRAMTraffic())),
			}
		})
	s.printf("%s\n", tb.String())
	return tb
}

// Tech22 reproduces the Section 6 technology study: with bank-internal
// energy shrinking faster than wire energy at 22nm, the near/far asymmetry
// grows and SLIP+ABP saves slightly more than at 45nm (paper: 36% L2,
// 25% L3).
func (s *Suite) Tech22() *stats.Table {
	tb := benchTable(stats.NewTable("Section 6: SLIP+ABP at 22nm", "bench", "L2 savings", "L3 savings"),
		"%.1f%%", s.opts.Benchmarks, func(name string) []float64 {
			base := s.RunS(tech22Spec(name, hier.Baseline))
			abp := s.RunS(tech22Spec(name, hier.SLIPABP))
			return []float64{
				stats.Savings(base.L2TotalPJ(), abp.L2TotalPJ()),
				stats.Savings(base.L3TotalPJ(), abp.L3TotalPJ()),
			}
		})
	s.printf("%s\n", tb.String())
	return tb
}

// BinWidth reproduces the Section 6 "impact of distribution accuracy"
// study: 4-bit bins are within ~1% of wider counters, while 2-bit bins
// round small hit counts to zero, over-bypass, and lose energy. Its rows
// are labelled by counter width in bits.
func (s *Suite) BinWidth() *stats.Table {
	tb := stats.NewTable("Section 6: distribution bin width sensitivity (SLIP+ABP, mean L2+L3 savings)",
		"bits", "savings")
	for _, bits := range binWidths {
		var v []float64
		for _, name := range s.opts.Benchmarks {
			base := s.Run(name, hier.Baseline)
			run := s.RunS(bitsSpec(name, bits))
			v = append(v, stats.Savings(
				base.L2TotalPJ()+base.L3TotalPJ(),
				run.L2TotalPJ()+run.L3TotalPJ()))
		}
		tb.AddRowF(fmt.Sprintf("%d", bits), "%.1f%%", stats.Mean(v))
	}
	s.printf("%s\n", tb.String())
	return tb
}

// Sampling reproduces the Section 4.2 motivation numbers: the metadata
// traffic of the always-sample design versus the Nsamp/Nstab state machine
// (paper: ~27% of L2 accesses worst case without sampling, <2% with it,
// and never above 1.5% of DRAM traffic).
func (s *Suite) Sampling() *stats.Table {
	tb := benchTable(stats.NewTable("Section 4.2: metadata traffic with/without time-based sampling",
		"bench", "meta share of L2 accesses (sampled)", "(always)", "meta share of DRAM (sampled)"),
		"%.2f%%", s.opts.Benchmarks, func(name string) []float64 {
			run := s.Run(name, hier.SLIPABP)
			always := s.RunS(noSampleSpec(name))
			return []float64{
				stats.Pct(float64(run.L2MetaAccesses), float64(run.Cores[0].L2.Accesses.Value())),
				stats.Pct(float64(always.L2MetaAccesses), float64(always.Cores[0].L2.Accesses.Value())),
				stats.Pct(float64(run.DRAMTraffic()-run.DRAMDemandTraffic()), float64(run.DRAMTraffic())),
			}
		})
	s.printf("%s\n", tb.String())
	return tb
}
