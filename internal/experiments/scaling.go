package experiments

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Fig16Result is the multiprogrammed two-core study.
type Fig16Result struct {
	// L3Savings / L2L3Savings / DRAMDeltaPct map mix name -> percent.
	L3Savings   map[string]float64
	L2L3Savings map[string]float64
	DRAMPct     map[string]float64 // traffic reduction (positive = less)
	AvgL3       float64
	AvgL2L3     float64
	AvgDRAM     float64
}

// Fig16 reproduces Figure 16: eight two-benchmark mixes on a system with
// private 256KB L2s and a shared 2MB L3, comparing SLIP+ABP against the
// baseline. Shared-LLC reuse distances grow, so more lines bypass and the
// L3 savings exceed the single-core result.
func (s *Suite) Fig16() Fig16Result {
	res := Fig16Result{
		L3Savings: map[string]float64{}, L2L3Savings: map[string]float64{}, DRAMPct: map[string]float64{},
	}
	tb := stats.NewTable("Figure 16: multiprogrammed mixes (SLIP+ABP vs baseline, shared L3)",
		"mix", "L3 savings", "L2+L3 savings", "DRAM traffic reduction")
	var a3, a23, ad []float64
	for _, m := range workloads.Mixes() {
		base := s.RunMix(m, hier.Baseline)
		abp := s.RunMix(m, hier.SLIPABP)
		sv3 := stats.Savings(base.L3TotalPJ(), abp.L3TotalPJ())
		sv23 := stats.Savings(base.L2TotalPJ()+base.L3TotalPJ(), abp.L2TotalPJ()+abp.L3TotalPJ())
		dr := stats.Savings(float64(base.DRAMTraffic()), float64(abp.DRAMTraffic()))
		res.L3Savings[m.Name()] = sv3
		res.L2L3Savings[m.Name()] = sv23
		res.DRAMPct[m.Name()] = dr
		a3 = append(a3, sv3)
		a23 = append(a23, sv23)
		ad = append(ad, dr)
		tb.AddRowF(m.Name(), "%.1f%%", sv3, sv23, dr)
	}
	res.AvgL3 = stats.Mean(a3)
	res.AvgL2L3 = stats.Mean(a23)
	res.AvgDRAM = stats.Mean(ad)
	tb.AddRowF("average", "%.1f%%", res.AvgL3, res.AvgL2L3, res.AvgDRAM)
	s.printf("%s\n", tb.String())
	return res
}

// Tech22Result is the 22nm scaling study.
type Tech22Result struct {
	AvgL2Savings, AvgL3Savings float64
}

// Tech22 reproduces the Section 6 technology study: with bank-internal
// energy shrinking faster than wire energy at 22nm, the near/far asymmetry
// grows and SLIP+ABP saves slightly more than at 45nm (paper: 36% L2,
// 25% L3).
func (s *Suite) Tech22() Tech22Result {
	tb := stats.NewTable("Section 6: SLIP+ABP at 22nm", "bench", "L2 savings", "L3 savings")
	var v2, v3 []float64
	for _, name := range s.opts.Benchmarks {
		base := s.RunS(tech22Spec(name, hier.Baseline))
		abp := s.RunS(tech22Spec(name, hier.SLIPABP))
		sv2 := stats.Savings(base.L2TotalPJ(), abp.L2TotalPJ())
		sv3 := stats.Savings(base.L3TotalPJ(), abp.L3TotalPJ())
		v2 = append(v2, sv2)
		v3 = append(v3, sv3)
		tb.AddRowF(name, "%.1f%%", sv2, sv3)
	}
	res := Tech22Result{AvgL2Savings: stats.Mean(v2), AvgL3Savings: stats.Mean(v3)}
	tb.AddRowF("average", "%.1f%%", res.AvgL2Savings, res.AvgL3Savings)
	s.printf("%s\n", tb.String())
	return res
}

// BinWidthResult is the distribution-accuracy sensitivity study.
type BinWidthResult struct {
	// SavingsByBits maps counter width -> mean L2+L3 savings percent.
	SavingsByBits map[uint8]float64
}

// BinWidth reproduces the Section 6 "impact of distribution accuracy"
// study: 4-bit bins are within ~1% of wider counters, while 2-bit bins
// round small hit counts to zero, over-bypass, and lose energy.
func (s *Suite) BinWidth() BinWidthResult {
	res := BinWidthResult{SavingsByBits: map[uint8]float64{}}
	tb := stats.NewTable("Section 6: distribution bin width sensitivity (SLIP+ABP, mean L2+L3 savings)",
		"bits", "savings")
	for _, bits := range binWidths {
		b := bits
		var v []float64
		for _, name := range s.opts.Benchmarks {
			base := s.Run(name, hier.Baseline)
			run := s.RunS(bitsSpec(name, b))
			v = append(v, stats.Savings(
				base.L2TotalPJ()+base.L3TotalPJ(),
				run.L2TotalPJ()+run.L3TotalPJ()))
		}
		res.SavingsByBits[bits] = stats.Mean(v)
		tb.AddRowF(fmt.Sprintf("%d", bits), "%.1f%%", res.SavingsByBits[bits])
	}
	s.printf("%s\n", tb.String())
	return res
}

// SamplingResult quantifies what time-based sampling buys.
type SamplingResult struct {
	// MetaL2SharePct is the metadata share of L2 accesses with and without
	// sampling (paper: ~27% worst case without, <2% with).
	WithSamplingPct, WithoutSamplingPct float64
	// DRAMMetaSharePct is the metadata share of DRAM traffic with sampling
	// (paper: never above 1.5%).
	DRAMMetaSharePct float64
}

// Sampling reproduces the Section 4.2 motivation numbers: the metadata
// traffic of the always-sample design versus the Nsamp/Nstab state machine.
func (s *Suite) Sampling() SamplingResult {
	var with, without, dramShare []float64
	tb := stats.NewTable("Section 4.2: metadata traffic with/without time-based sampling",
		"bench", "meta share of L2 accesses (sampled)", "(always)", "meta share of DRAM (sampled)")
	for _, name := range s.opts.Benchmarks {
		run := s.Run(name, hier.SLIPABP)
		always := s.RunS(noSampleSpec(name))
		l2acc := float64(run.Cores[0].L2.Accesses.Value())
		l2accA := float64(always.Cores[0].L2.Accesses.Value())
		w := stats.Pct(float64(run.L2MetaAccesses), l2acc)
		wo := stats.Pct(float64(always.L2MetaAccesses), l2accA)
		dm := stats.Pct(float64(run.DRAMTraffic()-run.DRAMDemandTraffic()), float64(run.DRAMTraffic()))
		with = append(with, w)
		without = append(without, wo)
		dramShare = append(dramShare, dm)
		tb.AddRowF(name, "%.2f%%", w, wo, dm)
	}
	res := SamplingResult{
		WithSamplingPct:    stats.Mean(with),
		WithoutSamplingPct: stats.Mean(without),
		DRAMMetaSharePct:   stats.Mean(dramShare),
	}
	tb.AddRowF("average", "%.2f%%", res.WithSamplingPct, res.WithoutSamplingPct, res.DRAMMetaSharePct)
	s.printf("%s\n", tb.String())
	return res
}
