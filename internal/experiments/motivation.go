package experiments

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Fig1 reproduces Figure 1: lines brought into a 2MB LLC broken down by
// reuse count, under the regular (baseline) hierarchy, in percent.
func (s *Suite) Fig1() *stats.Table {
	tb := benchTable(stats.NewTable("Figure 1: fraction of LLC lines by number of reuses (NR)",
		"bench", "NR=0", "NR=1", "NR=2", "NR>2"),
		"%.1f%%", workloads.Fig1Set(), func(name string) []float64 {
			fr := s.Run(name, hier.Baseline).NRFractions()
			return []float64{100 * fr[0], 100 * fr[1], 100 * fr[2], 100 * fr[3]}
		})
	s.printf("%s\n", tb.String())
	return tb
}

// Fig3 reproduces Figure 3 by replaying the soplex generator through an
// exact stack-distance calculator and splitting distances by the region
// (address arena) each access belongs to. The rotate loops (rorig/corig)
// split between tiny segments and cache-blowing ones; the permutation
// lookups (rperm) almost always miss; cperm mixes dense near reuse with a
// miss tail.
func (s *Suite) Fig3() *stats.Table {
	spec, _ := workloads.ByName("soplex")
	src := trace.Limit(spec.Build(s.opts.Seed), s.opts.Accesses)
	calc := reuse.NewCalculator(1 << 20)
	bounds := []uint64{mem.LinesIn(64 * mem.KB), mem.LinesIn(128 * mem.KB), mem.LinesIn(256 * mem.KB)}
	names := map[int]string{
		0: "rorig/corig (rotate loops)",
		1: "rperm (permutation lookups)",
		2: "cperm (mixed locality)",
		3: "stream",
	}
	hists := map[string]*reuse.Histogram{}
	for _, n := range names {
		hists[n] = reuse.NewHistogram(bounds)
	}
	batch := make([]trace.Access, 4096)
	for {
		k := src.NextBatch(batch)
		for _, a := range batch[:k] {
			region := int(uint64(a.Addr)>>32) - 1
			if name, known := names[region]; known {
				hists[name].Observe(calc.Observe(a.Addr.Line()))
			}
		}
		if k < len(batch) {
			break
		}
	}
	tb := stats.NewTable("Figure 3: soplex reuse-distance classes (exact stack distances)",
		"pattern", "<=64K", "<=128K", "<=256K", ">256K/miss")
	for _, region := range []int{0, 1, 2, 3} {
		name := names[region]
		fr := hists[name].Fractions()
		tb.AddRowF(name, "%.1f%%", 100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3])
	}
	s.printf("%s\n", tb.String())
	return tb
}

// Table2 reproduces Table 2: the per-sublevel and baseline access energies
// of both cache levels, rebuilt from the bank-grid wire model, and returns
// the worst relative deviation of the model from the presets.
func (s *Suite) Table2() float64 {
	tb := stats.NewTable("Table 2: energy parameters — wire model vs calibrated presets (pJ)",
		"parameter", "model", "preset", "err")
	maxErr := 0.0
	row := func(name string, model, preset float64) {
		err := math.Abs(model-preset) / preset
		if err > maxErr {
			maxErr = err
		}
		tb.AddRow(name, fmt.Sprintf("%.1f", model), fmt.Sprintf("%.1f", preset), fmt.Sprintf("%.1f%%", 100*err))
	}
	l2g, l3g := energy.L2Grid45(), energy.L3Grid45()
	l2p, l3p := energy.L2Params45(), energy.L3Params45()
	l2sub := l2g.SublevelEnergyPJ([]int{4, 4, 8})
	l3sub := l3g.SublevelEnergyPJ([]int{4, 4, 8})
	for i := 0; i < 3; i++ {
		row(fmt.Sprintf("L2 sublevel %d access", i), l2sub[i], l2p.SublevelPJ[i])
	}
	row("L2 baseline access", l2g.MeanWayEnergyPJ(), l2p.BaselineAccessPJ)
	for i := 0; i < 3; i++ {
		row(fmt.Sprintf("L3 sublevel %d access", i), l3sub[i], l3p.SublevelPJ[i])
	}
	row("L3 baseline access", l3g.MeanWayEnergyPJ(), l3p.BaselineAccessPJ)
	s.printf("%s\n", tb.String())
	return maxErr
}

// HTree reproduces the Section 2.1 claim that an H-tree interconnect raises
// L2 energy by ~37% and L3 energy by ~32% at identical performance, by
// simulating the baseline policy under both topologies. It returns the
// overhead table and the mean speedup of the H-tree over the baseline,
// which the line under the table prints.
func (s *Suite) HTree() (*stats.Table, float64) {
	var speed []float64
	tb := benchTable(stats.NewTable("Section 2.1: H-tree interconnect vs way-interleaved bus",
		"bench", "L2 overhead", "L3 overhead"),
		"%.1f%%", s.opts.Benchmarks, func(name string) []float64 {
			base := s.Run(name, hier.Baseline)
			ht := s.RunS(htreeSpec(name))
			speed = append(speed, 100*(base.ScaledMaxCycles()/ht.ScaledMaxCycles()-1))
			return []float64{100 * (ht.L2TotalPJ()/base.L2TotalPJ() - 1), 100 * (ht.L3TotalPJ()/base.L3TotalPJ() - 1)}
		})
	speedup := stats.Mean(speed)
	s.printf("%s(H-tree speedup vs baseline: %.2f%% — same performance, higher energy)\n\n",
		tb.String(), speedup)
	return tb, speedup
}
