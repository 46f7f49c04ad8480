package experiments

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/stats"
)

// PolicyRow is one policy's cross-benchmark summary: mean full-system
// dynamic energy and EDP over the benchmark set, the savings of those
// means versus the baseline's, and mean miss and bypass rates.
type PolicyRow struct {
	Policy        hier.PolicyKind
	MeanEnergyUJ  float64
	MeanEDP       float64
	EnergySavePct float64
	EDPSavePct    float64
	MeanL2MissPct float64
	MeanL3MissPct float64
	MeanBypassPct float64
}

// policyMeans averages one policy's runs over the configured benchmarks.
// Energy and EDP read the extrapolated Scaled* totals, so a set-sampled
// suite compares like with like.
func (s *Suite) policyMeans(p hier.PolicyKind) PolicyRow {
	var energy, edp, l2m, l3m, byp []float64
	for _, wl := range s.opts.Benchmarks {
		res := s.Run(wl, p)
		energy = append(energy, res.ScaledFullSystemPJ()/1e6)
		edp = append(edp, res.ScaledEDP())
		l2m = append(l2m, 100*levelMissRatio(res, 2))
		l3m = append(l3m, 100*levelMissRatio(res, 3))
		var fills, bypasses uint64
		for c := range res.Cores {
			fills += res.Cores[c].L2.Fills.Value()
			bypasses += res.Cores[c].L2.Bypasses.Value()
		}
		fills += res.L3.Fills.Value()
		bypasses += res.L3.Bypasses.Value()
		if tot := fills + bypasses; tot > 0 {
			byp = append(byp, 100*float64(bypasses)/float64(tot))
		} else {
			byp = append(byp, 0)
		}
	}
	return PolicyRow{
		Policy:        p,
		MeanEnergyUJ:  stats.Mean(energy),
		MeanEDP:       stats.Mean(edp),
		MeanL2MissPct: stats.Mean(l2m),
		MeanL3MissPct: stats.Mean(l3m),
		MeanBypassPct: stats.Mean(byp),
	}
}

// Policies sets every row of the policy table side by side over the
// configured benchmarks: the paper's comparison set and the later
// additions (LWRP, Reuse Detector bypass) alike. It is not a paper figure:
// the paper figures pin their policy set through Descriptor.EvalOrder, so
// a new policy row changes only this table.
func (s *Suite) Policies() []PolicyRow {
	tb := stats.NewTable("Policies: every policy of the policy table (means over benchmarks; savings of the means vs baseline)",
		"policy", "energy (uJ)", "vs baseline", "EDP (pJ*cyc)", "vs baseline", "L2 miss", "L3 miss", "bypass")
	base := s.policyMeans(hier.Baseline)
	var rows []PolicyRow
	for _, p := range hier.AllPolicies() {
		r := base
		if p != hier.Baseline {
			r = s.policyMeans(p)
		}
		r.EnergySavePct = stats.Savings(base.MeanEnergyUJ, r.MeanEnergyUJ)
		r.EDPSavePct = stats.Savings(base.MeanEDP, r.MeanEDP)
		rows = append(rows, r)
		tb.AddRow(p.String(),
			fmt.Sprintf("%.1f", r.MeanEnergyUJ), fmt.Sprintf("%+.1f%%", r.EnergySavePct),
			fmt.Sprintf("%.3g", r.MeanEDP), fmt.Sprintf("%+.1f%%", r.EDPSavePct),
			fmt.Sprintf("%.1f%%", r.MeanL2MissPct), fmt.Sprintf("%.1f%%", r.MeanL3MissPct),
			fmt.Sprintf("%.1f%%", r.MeanBypassPct))
	}
	s.printf("%s\n", tb.String())
	return rows
}
