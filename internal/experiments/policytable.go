package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/stats"
)

// PolicyRow is one policy's cross-benchmark summary: mean full-system
// dynamic energy and EDP over the benchmark set, and savings versus the
// baseline row.
type PolicyRow struct {
	Policy        string  `json:"policy"`
	UsesMetadata  bool    `json:"uses_metadata"`
	SLIPMachinery bool    `json:"slip_machinery"`
	EvalOrder     int     `json:"eval_order,omitempty"`
	MeanEnergyUJ  float64 `json:"mean_energy_uj"`
	MeanEDP       float64 `json:"mean_edp_pj_cyc"`
	EnergySavePct float64 `json:"energy_savings_pct"`
	EDPSavePct    float64 `json:"edp_savings_pct"`
	MeanL2MissPct float64 `json:"mean_l2_miss_pct"`
	MeanL3MissPct float64 `json:"mean_l3_miss_pct"`
	MeanBypassPct float64 `json:"mean_bypass_pct"`
}

// PolicyComparison is the energy/EDP table over the whole policy table:
// every policy — the paper's comparison set and the later additions
// alike — run over the same benchmarks on the same substrate.
type PolicyComparison struct {
	Benchmarks []string    `json:"benchmarks"`
	Accesses   uint64      `json:"accesses"`
	Warmup     uint64      `json:"warmup"`
	Seed       uint64      `json:"seed"`
	Rows       []PolicyRow `json:"rows"`
}

// ComparePolicies runs every policy over the configured benchmark set and
// summarizes mean full-system energy, EDP and miss/bypass behaviour, with
// savings relative to the baseline. The run fan-out goes through the
// ordinary suite engine, so the memo cache, trace cache and worker pool
// all apply.
func ComparePolicies(ctx context.Context, opts Options) (*PolicyComparison, error) {
	opts.normalize()
	su := NewSuite(opts)
	pols := hier.AllPolicies()

	var specs []RunSpec
	for _, wl := range opts.Benchmarks {
		for _, p := range pols {
			specs = append(specs, spec.Single(wl, p))
		}
	}
	if err := su.PrefetchContext(ctx, specs); err != nil {
		return nil, err
	}

	cmp := &PolicyComparison{
		Benchmarks: opts.Benchmarks,
		Accesses:   opts.Accesses,
		Warmup:     opts.Warmup,
		Seed:       opts.Seed,
	}
	var baseEnergy, baseEDP float64
	for _, p := range pols {
		d := p.Descriptor()
		row := PolicyRow{
			Policy:        d.Name,
			UsesMetadata:  d.UsesMetadata,
			SLIPMachinery: d.SLIPMachinery,
			EvalOrder:     d.EvalOrder,
		}
		var energy, edp, l2m, l3m, byp []float64
		for _, wl := range opts.Benchmarks {
			sys := su.Run(wl, p)
			energy = append(energy, sys.ScaledFullSystemPJ()/1e6)
			edp = append(edp, sys.ScaledEDP())
			l2m = append(l2m, 100*levelMissRatio(sys, 2))
			l3m = append(l3m, 100*levelMissRatio(sys, 3))
			var fills, bypasses uint64
			for c := 0; c < sys.Config().NumCores; c++ {
				fills += sys.L2(c).Stats.Fills.Value()
				bypasses += sys.L2(c).Stats.Bypasses.Value()
			}
			fills += sys.L3().Stats.Fills.Value()
			bypasses += sys.L3().Stats.Bypasses.Value()
			if tot := fills + bypasses; tot > 0 {
				byp = append(byp, 100*float64(bypasses)/float64(tot))
			} else {
				byp = append(byp, 0)
			}
		}
		row.MeanEnergyUJ = stats.Mean(energy)
		row.MeanEDP = stats.Mean(edp)
		row.MeanL2MissPct = stats.Mean(l2m)
		row.MeanL3MissPct = stats.Mean(l3m)
		row.MeanBypassPct = stats.Mean(byp)
		if p == hier.Baseline {
			baseEnergy, baseEDP = row.MeanEnergyUJ, row.MeanEDP
		}
		row.EnergySavePct = stats.Savings(baseEnergy, row.MeanEnergyUJ)
		row.EDPSavePct = stats.Savings(baseEDP, row.MeanEDP)
		cmp.Rows = append(cmp.Rows, row)
	}
	return cmp, nil
}

// Markdown renders the comparison as a GitHub-flavored table, the form
// EXPERIMENTS.md embeds and CI uploads as an artifact.
func (c *PolicyComparison) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "| policy | energy (uJ) | vs baseline | EDP (pJ·cyc) | vs baseline | L2 miss | L3 miss | bypass |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "| %s | %.1f | %+.1f%% | %.3g | %+.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
			r.Policy, r.MeanEnergyUJ, r.EnergySavePct, r.MeanEDP, r.EDPSavePct,
			r.MeanL2MissPct, r.MeanL3MissPct, r.MeanBypassPct)
	}
	return b.String()
}
