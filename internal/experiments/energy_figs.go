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

// evalColumns heads the figures that set evalPolicies side by side.
var evalColumns = []string{"bench", "NuRAPID", "LRU-PEA", "SLIP", "SLIP+ABP"}

// slipPolicies are the SLIP variants Figs. 10 and 12 set against the
// baseline.
var slipPolicies = []hier.PolicyKind{hier.SLIP, hier.SLIPABP}

// benchTable adds one row per name, formatted with verb, then the average
// row: each column's stats.Mean over the names.
func benchTable(tb *stats.Table, verb string, names []string, row func(name string) []float64) *stats.Table {
	cols := make([][]float64, len(tb.Columns)-1)
	for _, name := range names {
		vals := row(name)
		tb.AddRowF(name, verb, vals...)
		for i := range cols {
			cols[i] = append(cols[i], vals[i])
		}
	}
	avg := make([]float64, len(cols))
	for i, c := range cols {
		avg[i] = stats.Mean(c)
	}
	tb.AddRowF("average", verb, avg...)
	return tb
}

// versusBaseline returns f(baseline run, policy run) on benchmark name for
// each of pols.
func (s *Suite) versusBaseline(name string, pols []hier.PolicyKind, f func(base, run *hier.Result) float64) []float64 {
	base := s.Run(name, hier.Baseline)
	out := make([]float64, len(pols))
	for i, p := range pols {
		out[i] = f(base, s.Run(name, p))
	}
	return out
}

// Fig9 reproduces Figure 9 (energy savings at L2 and L3 for SLIP and
// SLIP+ABP) together with the quoted NuRAPID/LRU-PEA overheads the figure
// omits for scale.
func (s *Suite) Fig9() (l2, l3 *stats.Table) {
	savings := func(title string, levelPJ func(*hier.Result) float64) *stats.Table {
		return benchTable(stats.NewTable(title, evalColumns...), "%.1f%%", s.opts.Benchmarks, func(name string) []float64 {
			return s.versusBaseline(name, evalPolicies, func(base, run *hier.Result) float64 {
				return stats.Savings(levelPJ(base), levelPJ(run))
			})
		})
	}
	l2 = savings("Figure 9 (top): L2 energy savings vs baseline", (*hier.Result).L2TotalPJ)
	l3 = savings("Figure 9 (bottom): L3 energy savings vs baseline", (*hier.Result).L3TotalPJ)
	s.printf("%s\n%s\n", l2.String(), l3.String())
	return l2, l3
}

// Fig10 reproduces Figure 10: full-system (core + caches + DRAM) dynamic
// energy savings for SLIP and SLIP+ABP.
func (s *Suite) Fig10() *stats.Table {
	tb := benchTable(stats.NewTable("Figure 10: full-system dynamic energy savings", "bench", "SLIP", "SLIP+ABP"),
		"%.2f%%", s.opts.Benchmarks, func(name string) []float64 {
			return s.versusBaseline(name, slipPolicies, func(base, run *hier.Result) float64 {
				return stats.Savings(base.ScaledFullSystemPJ(), run.ScaledFullSystemPJ())
			})
		})
	s.printf("%s\n", tb.String())
	return tb
}

// Fig11 reproduces Figure 11: the split of cache energy into access energy
// and movement energy (insertions, inter-sublevel moves, writebacks),
// averaged over benchmarks and normalized to the baseline. It shows the
// paper's central claim: the NUCA policies win on access energy but lose
// far more on movement energy, while SLIP optimizes the sum.
func (s *Suite) Fig11() *stats.Table {
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)
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
		tb.AddRowF(p.String(), "%.2f", stats.Mean(a2), stats.Mean(m2), stats.Mean(a3), stats.Mean(m3))
	}
	s.printf("%s\n", tb.String())
	return tb
}
