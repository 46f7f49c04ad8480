package experiments

import (
	"slices"

	"repro/internal/hier"
	"repro/internal/stats"
)

// evalPolicies is the Section 5 comparison set in presentation order:
// the policies with EvalOrder > 0, sorted by it (later additions stay out
// so the paper figures keep their exact shape).
var evalPolicies = func() []hier.PolicyKind {
	var out []hier.PolicyKind
	for _, p := range hier.AllPolicies() {
		if p.Descriptor().EvalOrder > 0 {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b hier.PolicyKind) int {
		return a.Descriptor().EvalOrder - b.Descriptor().EvalOrder
	})
	return out
}()

// EvalPolicies returns the paper's comparison policies in presentation
// order (a copy; callers may append).
func EvalPolicies() []hier.PolicyKind {
	return append([]hier.PolicyKind(nil), evalPolicies...)
}

// Fig9Result is the per-benchmark L2/L3 energy savings of every policy
// versus the baseline (negative = overhead, as for NuRAPID and LRU-PEA).
type Fig9Result struct {
	// L2 and L3 map policy -> benchmark -> savings percent.
	L2, L3 map[hier.PolicyKind]map[string]float64
	// AvgL2 and AvgL3 map policy -> mean savings percent.
	AvgL2, AvgL3 map[hier.PolicyKind]float64
}

// Fig9 reproduces Figure 9 (energy savings at L2 and L3 for SLIP and
// SLIP+ABP) together with the quoted NuRAPID/LRU-PEA overheads the figure
// omits for scale.
func (s *Suite) Fig9() Fig9Result {
	res := Fig9Result{
		L2: map[hier.PolicyKind]map[string]float64{}, L3: map[hier.PolicyKind]map[string]float64{},
		AvgL2: map[hier.PolicyKind]float64{}, AvgL3: map[hier.PolicyKind]float64{},
	}
	for _, p := range evalPolicies {
		res.L2[p] = map[string]float64{}
		res.L3[p] = map[string]float64{}
	}
	tb2 := stats.NewTable("Figure 9 (top): L2 energy savings vs baseline",
		"bench", "NuRAPID", "LRU-PEA", "SLIP", "SLIP+ABP")
	tb3 := stats.NewTable("Figure 9 (bottom): L3 energy savings vs baseline",
		"bench", "NuRAPID", "LRU-PEA", "SLIP", "SLIP+ABP")
	for _, name := range s.opts.Benchmarks {
		base := s.Run(name, hier.Baseline)
		var row2, row3 []float64
		for _, p := range evalPolicies {
			run := s.Run(name, p)
			sv2 := stats.Savings(base.L2TotalPJ(), run.L2TotalPJ())
			sv3 := stats.Savings(base.L3TotalPJ(), run.L3TotalPJ())
			res.L2[p][name] = sv2
			res.L3[p][name] = sv3
			row2 = append(row2, sv2)
			row3 = append(row3, sv3)
		}
		tb2.AddRowF(name, "%.1f%%", row2...)
		tb3.AddRowF(name, "%.1f%%", row3...)
	}
	var avg2, avg3 []float64
	for _, p := range evalPolicies {
		var v2, v3 []float64
		for _, name := range s.opts.Benchmarks {
			v2 = append(v2, res.L2[p][name])
			v3 = append(v3, res.L3[p][name])
		}
		res.AvgL2[p] = stats.Mean(v2)
		res.AvgL3[p] = stats.Mean(v3)
		avg2 = append(avg2, res.AvgL2[p])
		avg3 = append(avg3, res.AvgL3[p])
	}
	tb2.AddRowF("average", "%.1f%%", avg2...)
	tb3.AddRowF("average", "%.1f%%", avg3...)
	s.printf("%s\n%s\n", tb2.String(), tb3.String())
	return res
}

// Fig10Result is the full-system dynamic energy savings.
type Fig10Result struct {
	Rows map[hier.PolicyKind]map[string]float64
	Avg  map[hier.PolicyKind]float64
}

// Fig10 reproduces Figure 10: full-system (core + caches + DRAM) dynamic
// energy savings for SLIP and SLIP+ABP.
func (s *Suite) Fig10() Fig10Result {
	pols := []hier.PolicyKind{hier.SLIP, hier.SLIPABP}
	res := Fig10Result{Rows: map[hier.PolicyKind]map[string]float64{}, Avg: map[hier.PolicyKind]float64{}}
	for _, p := range pols {
		res.Rows[p] = map[string]float64{}
	}
	tb := stats.NewTable("Figure 10: full-system dynamic energy savings",
		"bench", "SLIP", "SLIP+ABP")
	for _, name := range s.opts.Benchmarks {
		base := s.Run(name, hier.Baseline)
		var row []float64
		for _, p := range pols {
			sv := stats.Savings(base.ScaledFullSystemPJ(), s.Run(name, p).ScaledFullSystemPJ())
			res.Rows[p][name] = sv
			row = append(row, sv)
		}
		tb.AddRowF(name, "%.2f%%", row...)
	}
	var avgs []float64
	for _, p := range pols {
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

// Fig11Result is the access/movement energy breakdown, normalized to the
// baseline's total at each level.
type Fig11Result struct {
	// Access and Movement map policy -> normalized energy (baseline = the
	// reference whose access+movement sums to 1).
	L2Access, L2Movement map[hier.PolicyKind]float64
	L3Access, L3Movement map[hier.PolicyKind]float64
}

// Fig11 reproduces Figure 11: the split of cache energy into access energy
// and movement energy (insertions, inter-sublevel moves, writebacks),
// averaged over benchmarks and normalized to the baseline. It shows the
// paper's central claim: the NUCA policies win on access energy but lose
// far more on movement energy, while SLIP optimizes the sum.
func (s *Suite) Fig11() Fig11Result {
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)
	res := Fig11Result{
		L2Access: map[hier.PolicyKind]float64{}, L2Movement: map[hier.PolicyKind]float64{},
		L3Access: map[hier.PolicyKind]float64{}, L3Movement: map[hier.PolicyKind]float64{},
	}
	tb := stats.NewTable("Figure 11: access vs movement energy (normalized to baseline total, averaged over benchmarks)",
		"policy", "L2 access", "L2 movement", "L3 access", "L3 movement")
	for _, p := range pols {
		var a2, m2, a3, m3 []float64
		for _, name := range s.opts.Benchmarks {
			base := s.Run(name, hier.Baseline)
			run := s.Run(name, p)
			n2 := base.L2AccessPJ() + base.L2MovementPJ()
			n3 := base.L3AccessPJ() + base.L3MovementPJ()
			a2 = append(a2, stats.Ratio(run.L2AccessPJ(), n2))
			m2 = append(m2, stats.Ratio(run.L2MovementPJ(), n2))
			a3 = append(a3, stats.Ratio(run.L3AccessPJ(), n3))
			m3 = append(m3, stats.Ratio(run.L3MovementPJ(), n3))
		}
		res.L2Access[p] = stats.Mean(a2)
		res.L2Movement[p] = stats.Mean(m2)
		res.L3Access[p] = stats.Mean(a3)
		res.L3Movement[p] = stats.Mean(m3)
		tb.AddRowF(p.String(), "%.2f",
			res.L2Access[p], res.L2Movement[p], res.L3Access[p], res.L3Movement[p])
	}
	s.printf("%s\n", tb.String())
	return res
}
