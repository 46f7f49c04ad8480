package experiments

import (
	"fmt"
	"math"

	"repro/internal/hier"
	"repro/internal/stats"
)

// SamplingFactors are the set-sampling factors the setsampling experiment
// calibrates against full fidelity.
var SamplingFactors = []int{2, 4, 8, 16}

// SamplingErrorStat summarizes the absolute relative error of one
// extrapolated metric over the run matrix, in percent.
type SamplingErrorStat struct {
	MeanAbsPct float64
	MaxAbsPct  float64
}

// SamplingFactorResult is the calibration outcome of one sampling factor:
// the share of accesses it simulated and the extrapolation error of each
// headline metric across the matrix.
type SamplingFactorResult struct {
	Factor int
	// SampledShare is the mean fraction of accesses actually simulated
	// (~1/Factor by construction).
	SampledShare float64
	L2MissRatio  SamplingErrorStat
	L3MissRatio  SamplingErrorStat
	EnergyPJ     SamplingErrorStat
	EDP          SamplingErrorStat
}

// sampleRunMetrics are the per-run observables calibration compares. Miss
// ratios come from raw (unscaled) counters — numerator and denominator
// scale together, so the ratio is already an unbiased estimate — while
// energy and EDP use the extrapolated Scaled* accessors.
type sampleRunMetrics struct {
	l2MissRatio  float64
	l3MissRatio  float64
	energyPJ     float64
	edp          float64
	sampledShare float64
}

// levelMissRatio aggregates a level's demand miss ratio across cores.
func levelMissRatio(res *hier.Result, level int) float64 {
	var acc, miss uint64
	if level == 2 {
		for i := range res.Cores {
			acc += res.Cores[i].L2.Accesses.Value()
			miss += res.Cores[i].L2.Misses.Value()
		}
	} else {
		acc = res.L3.Accesses.Value()
		miss = res.L3.Misses.Value()
	}
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}

func metricsOf(res *hier.Result) sampleRunMetrics {
	m := sampleRunMetrics{
		l2MissRatio: levelMissRatio(res, 2),
		l3MissRatio: levelMissRatio(res, 3),
		energyPJ:    res.ScaledFullSystemPJ(),
		edp:         res.ScaledEDP(),
	}
	if driven := res.SampledAccesses + res.SkippedAccesses; driven > 0 {
		m.sampledShare = float64(res.SampledAccesses) / float64(driven)
	} else {
		m.sampledShare = 1 // sampling off: everything was simulated
	}
	return m
}

// relErrPct is the absolute relative error of got vs want, in percent.
// A zero ground truth matched by a zero estimate is 0% error; a zero
// ground truth missed by a nonzero estimate counts as 100%.
func relErrPct(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 100
	}
	return 100 * math.Abs(got-want) / math.Abs(want)
}

// observe folds one run's error into the stat (mean is accumulated as a
// sum here; finish divides).
func (e *SamplingErrorStat) observe(got, want float64) {
	pct := relErrPct(got, want)
	e.MeanAbsPct += pct
	if pct > e.MaxAbsPct {
		e.MaxAbsPct = pct
	}
}

func (e *SamplingErrorStat) finish(n int) {
	if n > 0 {
		e.MeanAbsPct /= float64(n)
	}
}

// String renders the stat as one table cell: mean / max.
func (e SamplingErrorStat) String() string {
	return fmt.Sprintf("%.2f%% / %.2f%%", e.MeanAbsPct, e.MaxAbsPct)
}

// SetSampling calibrates set sampling against full fidelity: the fig9
// matrix (every configured benchmark under the baseline and the paper's
// comparison policies) at each factor of SamplingFactors, against the same
// matrix at full fidelity, reporting the extrapolation error of per-level
// miss ratios, full-system energy and EDP. It prints no wall-clock; the
// `[prefetched …]` banner of `slipbench -exp fig9 -sampling K` times a
// sampled matrix.
func (s *Suite) SetSampling() []SamplingFactorResult {
	tb := stats.NewTable("Set sampling: extrapolation error vs full fidelity over the fig9 matrix (mean / max absolute relative error)",
		"factor", "simulated", "L2 miss ratio", "L3 miss ratio", "energy", "EDP")
	full := sampledSpecs(s, 1)
	var out []SamplingFactorResult
	for _, k := range SamplingFactors {
		fr := SamplingFactorResult{Factor: k}
		for i, sp := range sampledSpecs(s, k) {
			got, want := metricsOf(s.RunS(sp)), metricsOf(s.RunS(full[i]))
			fr.L2MissRatio.observe(got.l2MissRatio, want.l2MissRatio)
			fr.L3MissRatio.observe(got.l3MissRatio, want.l3MissRatio)
			fr.EnergyPJ.observe(got.energyPJ, want.energyPJ)
			fr.EDP.observe(got.edp, want.edp)
			fr.SampledShare += got.sampledShare
		}
		n := len(full)
		fr.L2MissRatio.finish(n)
		fr.L3MissRatio.finish(n)
		fr.EnergyPJ.finish(n)
		fr.EDP.finish(n)
		if n > 0 {
			fr.SampledShare /= float64(n)
		}
		out = append(out, fr)
		tb.AddRow(fmt.Sprintf("1/%d", k), fmt.Sprintf("%.2f%%", 100*fr.SampledShare),
			fr.L2MissRatio.String(), fr.L3MissRatio.String(), fr.EnergyPJ.String(), fr.EDP.String())
	}
	s.printf("%s\n", tb.String())
	return out
}
