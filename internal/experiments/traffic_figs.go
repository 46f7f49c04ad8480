package experiments

import (
	"repro/internal/hier"
	"repro/internal/stats"
)

// Fig12Result is the relative miss traffic of SLIP policies vs baseline,
// split into demand misses and metadata overhead.
type Fig12Result struct {
	// L2Demand/L2Meta map policy -> benchmark -> percent of baseline misses.
	L2Demand, L2Meta map[hier.PolicyKind]map[string]float64
	L3Demand, L3Meta map[hier.PolicyKind]map[string]float64
	// AvgL2Total/AvgL3Total are mean (demand+metadata) relative misses.
	AvgL2Total, AvgL3Total map[hier.PolicyKind]float64
	// AvgDRAMOverheadPct is the mean metadata share of DRAM traffic.
	AvgDRAMOverheadPct float64
	// AvgDRAMTrafficPct is mean total DRAM traffic vs baseline.
	AvgDRAMTrafficPct map[hier.PolicyKind]float64
}

// Fig12 reproduces Figure 12: L2 and L3 miss traffic relative to the
// baseline for SLIP and SLIP+ABP, broken into demand misses and
// distribution-metadata overhead, plus the DRAM traffic deltas quoted in
// the text (overall reduction ~2%, metadata overhead below 1.5%).
func (s *Suite) Fig12() Fig12Result {
	pols := []hier.PolicyKind{hier.SLIP, hier.SLIPABP}
	res := Fig12Result{
		L2Demand: map[hier.PolicyKind]map[string]float64{}, L2Meta: map[hier.PolicyKind]map[string]float64{},
		L3Demand: map[hier.PolicyKind]map[string]float64{}, L3Meta: map[hier.PolicyKind]map[string]float64{},
		AvgL2Total: map[hier.PolicyKind]float64{}, AvgL3Total: map[hier.PolicyKind]float64{},
		AvgDRAMTrafficPct: map[hier.PolicyKind]float64{},
	}
	for _, p := range pols {
		res.L2Demand[p] = map[string]float64{}
		res.L2Meta[p] = map[string]float64{}
		res.L3Demand[p] = map[string]float64{}
		res.L3Meta[p] = map[string]float64{}
	}
	tb := stats.NewTable("Figure 12: relative miss traffic (percent of baseline; demand + metadata)",
		"bench", "L2 SLIP", "L2 SLIP+ABP", "L3 SLIP", "L3 SLIP+ABP")
	var dramOver []float64
	for _, name := range s.opts.Benchmarks {
		base := s.Run(name, hier.Baseline)
		var cells []float64
		for _, lvl := range []int{2, 3} {
			for _, p := range pols {
				run := s.Run(name, p)
				var baseMiss, demand, meta uint64
				if lvl == 2 {
					baseMiss = base.L2Misses(false)
					demand = run.L2Misses(false)
					meta = run.L2Misses(true) - demand
					res.L2Demand[p][name] = stats.Pct(float64(demand), float64(baseMiss))
					res.L2Meta[p][name] = stats.Pct(float64(meta), float64(baseMiss))
				} else {
					baseMiss = base.L3Misses(false)
					demand = run.L3Misses(false)
					meta = run.L3Misses(true) - demand
					res.L3Demand[p][name] = stats.Pct(float64(demand), float64(baseMiss))
					res.L3Meta[p][name] = stats.Pct(float64(meta), float64(baseMiss))
				}
				cells = append(cells, stats.Pct(float64(demand+meta), float64(baseMiss)))
			}
		}
		// Reorder: table wants L2 SLIP, L2 ABP, L3 SLIP, L3 ABP (already so).
		tb.AddRowF(name, "%.1f%%", cells...)
		abp := s.Run(name, hier.SLIPABP)
		metaTraffic := abp.DRAMTraffic() - abp.DRAMDemandTraffic()
		dramOver = append(dramOver, stats.Pct(float64(metaTraffic), float64(abp.DRAMTraffic())))
	}
	for _, p := range pols {
		var t2, t3, dt []float64
		for _, name := range s.opts.Benchmarks {
			t2 = append(t2, res.L2Demand[p][name]+res.L2Meta[p][name])
			t3 = append(t3, res.L3Demand[p][name]+res.L3Meta[p][name])
			base := s.Run(name, hier.Baseline)
			dt = append(dt, stats.Pct(float64(s.Run(name, p).DRAMTraffic()), float64(base.DRAMTraffic())))
		}
		res.AvgL2Total[p] = stats.Mean(t2)
		res.AvgL3Total[p] = stats.Mean(t3)
		res.AvgDRAMTrafficPct[p] = stats.Mean(dt)
	}
	res.AvgDRAMOverheadPct = stats.Mean(dramOver)
	tb.AddRowF("average", "%.1f%%",
		res.AvgL2Total[hier.SLIP], res.AvgL2Total[hier.SLIPABP],
		res.AvgL3Total[hier.SLIP], res.AvgL3Total[hier.SLIPABP])
	s.printf("%sDRAM traffic vs baseline: SLIP %.1f%%, SLIP+ABP %.1f%%; metadata share of DRAM traffic %.2f%%\n\n",
		tb.String(), res.AvgDRAMTrafficPct[hier.SLIP], res.AvgDRAMTrafficPct[hier.SLIPABP],
		res.AvgDRAMOverheadPct)
	return res
}

// Fig13Result is the speedup of each policy over the baseline.
type Fig13Result struct {
	Rows map[hier.PolicyKind]map[string]float64
	Avg  map[hier.PolicyKind]float64
}

// Fig13 reproduces Figure 13: speedups versus the regular hierarchy (the
// paper reports 0.06% / 0.16% / 0.24% / 0.75% averages — small, with
// SLIP+ABP ahead because bypassing avoids pollution).
func (s *Suite) Fig13() Fig13Result {
	res := Fig13Result{Rows: map[hier.PolicyKind]map[string]float64{}, Avg: map[hier.PolicyKind]float64{}}
	for _, p := range evalPolicies {
		res.Rows[p] = map[string]float64{}
	}
	tb := stats.NewTable("Figure 13: speedup vs regular hierarchy",
		"bench", "NuRAPID", "LRU-PEA", "SLIP", "SLIP+ABP")
	for _, name := range s.opts.Benchmarks {
		base := s.Run(name, hier.Baseline)
		var row []float64
		for _, p := range evalPolicies {
			sp := 100 * (base.ScaledMaxCycles()/s.Run(name, p).ScaledMaxCycles() - 1)
			res.Rows[p][name] = sp
			row = append(row, sp)
		}
		tb.AddRowF(name, "%.2f%%", row...)
	}
	var avgs []float64
	for _, p := range evalPolicies {
		var v []float64
		for _, name := range s.opts.Benchmarks {
			v = append(v, res.Rows[p][name])
		}
		res.Avg[p] = stats.Mean(v)
		avgs = append(avgs, res.Avg[p])
	}
	tb.AddRowF("average", "%.2f%%", avgs...)
	s.printf("%s\n", tb.String())
	return res
}

// Fig14Result is the breakdown of insertions by assigned SLIP class.
type Fig14Result struct {
	// L2 and L3 map benchmark -> [ABP, partial bypass, default, other].
	L2, L3 map[string][4]float64
	// AvgL2/AvgL3 are the mean fractions.
	AvgL2, AvgL3 [4]float64
}

// Fig14 reproduces Figure 14: the fraction of SLIP+ABP insertions whose
// assigned policy is the All-Bypass Policy, a partial bypass, the Default
// SLIP, or another multi-chunk policy.
func (s *Suite) Fig14() Fig14Result {
	res := Fig14Result{L2: map[string][4]float64{}, L3: map[string][4]float64{}}
	tb := stats.NewTable("Figure 14: insertions by SLIP class (SLIP+ABP)",
		"bench", "L2 ABP", "L2 partial", "L2 default", "L2 other",
		"L3 ABP", "L3 partial", "L3 default", "L3 other")
	n := float64(len(s.opts.Benchmarks))
	for _, name := range s.opts.Benchmarks {
		run := s.Run(name, hier.SLIPABP)
		f2 := run.InsertionClassFractions(2)
		f3 := run.InsertionClassFractions(3)
		res.L2[name] = f2
		res.L3[name] = f3
		for i := 0; i < 4; i++ {
			res.AvgL2[i] += f2[i] / n
			res.AvgL3[i] += f3[i] / n
		}
		tb.AddRowF(name, "%.1f%%",
			100*f2[0], 100*f2[1], 100*f2[2], 100*f2[3],
			100*f3[0], 100*f3[1], 100*f3[2], 100*f3[3])
	}
	tb.AddRowF("average", "%.1f%%",
		100*res.AvgL2[0], 100*res.AvgL2[1], 100*res.AvgL2[2], 100*res.AvgL2[3],
		100*res.AvgL3[0], 100*res.AvgL3[1], 100*res.AvgL3[2], 100*res.AvgL3[3])
	s.printf("%s\n", tb.String())
	return res
}

// Fig15Result is the fraction of hits served from each sublevel.
type Fig15Result struct {
	// L2 and L3 map policy -> [sublevel0, 1, 2] hit shares.
	L2, L3 map[hier.PolicyKind][3]float64
}

// Fig15 reproduces Figure 15: all policies shift accesses toward the
// energy-efficient sublevel 0; the NUCA promoters most aggressively — but
// Figure 11 shows they pay more in movement than they save.
func (s *Suite) Fig15() Fig15Result {
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)
	res := Fig15Result{L2: map[hier.PolicyKind][3]float64{}, L3: map[hier.PolicyKind][3]float64{}}
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
		res.L2[p] = v2
		res.L3[p] = v3
		tb.AddRowF(p.String(), "%.1f%%",
			100*v2[0], 100*v2[1], 100*v2[2], 100*v3[0], 100*v3[1], 100*v3[2])
	}
	s.printf("%s\n", tb.String())
	return res
}
