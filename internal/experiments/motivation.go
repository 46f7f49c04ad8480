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

// Fig1Result is the Figure 1 data: per-benchmark fractions of LLC lines by
// number of reuses before eviction (NR = 0, 1, 2, >2).
type Fig1Result struct {
	Rows    map[string][4]float64
	Average [4]float64
}

// Fig1 reproduces Figure 1: lines brought into a 2MB LLC broken down by
// reuse count, under the regular (baseline) hierarchy.
func (s *Suite) Fig1() Fig1Result {
	res := Fig1Result{Rows: make(map[string][4]float64)}
	tb := stats.NewTable("Figure 1: fraction of LLC lines by number of reuses (NR)",
		"bench", "NR=0", "NR=1", "NR=2", "NR>2")
	var sum [4]float64
	set := workloads.Fig1Set()
	for _, name := range set {
		fr := s.Run(name, hier.Baseline).NRFractions()
		res.Rows[name] = fr
		for i := range sum {
			sum[i] += fr[i]
		}
		tb.AddRowF(name, "%.1f%%", 100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3])
	}
	for i := range sum {
		res.Average[i] = sum[i] / float64(len(set))
	}
	tb.AddRowF("average", "%.1f%%",
		100*res.Average[0], 100*res.Average[1], 100*res.Average[2], 100*res.Average[3])
	s.printf("%s\n", tb.String())
	return res
}

// Fig3Result is the Figure 3 data: reuse-distance distributions of the
// three access-pattern classes inside soplex, with capacity bins at 64KB,
// 128KB, 256KB and beyond.
type Fig3Result struct {
	// Classes maps pattern name -> bin fractions (<=64K, 128K, 256K, >256K).
	Classes map[string][4]float64
}

// Fig3 reproduces Figure 3 by replaying the soplex generator through an
// exact stack-distance calculator and splitting distances by the region
// (address arena) each access belongs to. The rotate loops (rorig/corig)
// split between tiny segments and cache-blowing ones; the permutation
// lookups (rperm) almost always miss; cperm mixes dense near reuse with a
// miss tail.
func (s *Suite) Fig3() Fig3Result {
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
	res := Fig3Result{Classes: make(map[string][4]float64)}
	tb := stats.NewTable("Figure 3: soplex reuse-distance classes (exact stack distances)",
		"pattern", "<=64K", "<=128K", "<=256K", ">256K/miss")
	for _, region := range []int{0, 1, 2, 3} {
		name := names[region]
		fr := hists[name].Fractions()
		var row [4]float64
		copy(row[:], fr)
		res.Classes[name] = row
		tb.AddRowF(name, "%.1f%%", 100*fr[0], 100*fr[1], 100*fr[2], 100*fr[3])
	}
	s.printf("%s\n", tb.String())
	return res
}

// Table2Result compares the geometry-derived energy model against the
// calibrated Table 2 presets.
type Table2Result struct {
	// MaxRelErr is the worst relative deviation across all entries.
	MaxRelErr float64
}

// Table2 reproduces Table 2: the per-sublevel and baseline access energies
// of both cache levels, rebuilt from the bank-grid wire model.
func (s *Suite) Table2() Table2Result {
	tb := stats.NewTable("Table 2: energy parameters — wire model vs calibrated presets (pJ)",
		"parameter", "model", "preset", "err")
	maxErr := 0.0
	row := func(name string, model, preset float64) {
		err := math.Abs(model-preset) / preset
		if err > maxErr {
			maxErr = err
		}
		tb.AddRow(name,
			trimF(model), trimF(preset), trimPct(100*err))
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
	return Table2Result{MaxRelErr: maxErr}
}

// HTreeResult is the Section 2.1 topology comparison.
type HTreeResult struct {
	// L2OverheadPct / L3OverheadPct are the simulated energy increases of an
	// H-tree interconnect over the way-interleaved baseline.
	L2OverheadPct, L3OverheadPct float64
	// SpeedupPct is the (near-zero) performance difference.
	SpeedupPct float64
}

// HTree reproduces the Section 2.1 claim that an H-tree interconnect raises
// L2 energy by ~37% and L3 energy by ~32% at identical performance, by
// simulating the baseline policy under both topologies.
func (s *Suite) HTree() HTreeResult {
	var l2Over, l3Over, speed []float64
	tb := stats.NewTable("Section 2.1: H-tree interconnect vs way-interleaved bus",
		"bench", "L2 overhead", "L3 overhead")
	for _, name := range s.opts.Benchmarks {
		base := s.Run(name, hier.Baseline)
		ht := s.RunS(htreeSpec(name))
		o2 := 100 * (ht.L2TotalPJ()/base.L2TotalPJ() - 1)
		o3 := 100 * (ht.L3TotalPJ()/base.L3TotalPJ() - 1)
		l2Over = append(l2Over, o2)
		l3Over = append(l3Over, o3)
		speed = append(speed, 100*(base.ScaledMaxCycles()/ht.ScaledMaxCycles()-1))
		tb.AddRowF(name, "%.1f%%", o2, o3)
	}
	res := HTreeResult{
		L2OverheadPct: stats.Mean(l2Over),
		L3OverheadPct: stats.Mean(l3Over),
		SpeedupPct:    stats.Mean(speed),
	}
	tb.AddRowF("average", "%.1f%%", res.L2OverheadPct, res.L3OverheadPct)
	s.printf("%s(H-tree speedup vs baseline: %.2f%% — same performance, higher energy)\n\n",
		tb.String(), res.SpeedupPct)
	return res
}

func trimF(v float64) string   { return fmt.Sprintf("%.1f", v) }
func trimPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
