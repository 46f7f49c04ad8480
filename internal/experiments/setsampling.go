package experiments

import (
	"context"
	"math"
	"time"

	"repro/internal/hier"
	"repro/internal/lru"
	"repro/internal/spec"
)

// SamplingFactors are the default set-sampling calibration points: the
// sampled passes CalibrateSetSampling compares against full fidelity.
var SamplingFactors = []int{2, 4, 8, 16}

// SamplingErrorStat summarizes the relative error of one extrapolated
// metric over the run matrix, in percent.
type SamplingErrorStat struct {
	MeanAbsPct float64 `json:"mean_abs_pct"`
	MaxAbsPct  float64 `json:"max_abs_pct"`
}

// SamplingFactorResult is the calibration outcome of one sampling factor:
// wall-clock speedup over the full-fidelity pass and the extrapolation
// error of each headline metric across the matrix.
type SamplingFactorResult struct {
	Factor      int     `json:"factor"`
	WallSeconds float64 `json:"wall_seconds"`
	Speedup     float64 `json:"speedup"`
	// SampledShare is the mean fraction of accesses actually simulated
	// (~1/Factor by construction).
	SampledShare float64           `json:"sampled_share"`
	L2MissRatio  SamplingErrorStat `json:"l2_miss_ratio"`
	L3MissRatio  SamplingErrorStat `json:"l3_miss_ratio"`
	EnergyPJ     SamplingErrorStat `json:"energy_pj"`
	EDP          SamplingErrorStat `json:"edp"`
}

// SamplingReport is the full calibration artifact (BENCH_sampling.json):
// the fig9 matrix run at full fidelity and at each sampling factor, with
// speedup and per-metric extrapolation error.
type SamplingReport struct {
	Benchmarks      []string               `json:"benchmarks"`
	Policies        []string               `json:"policies"`
	Runs            int                    `json:"runs"`
	Accesses        uint64                 `json:"accesses"`
	Warmup          uint64                 `json:"warmup"`
	Seed            uint64                 `json:"seed"`
	FullWallSeconds float64                `json:"full_wall_seconds"`
	Factors         []SamplingFactorResult `json:"factors"`
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

// CalibrateSetSampling runs the fig9 matrix (every configured benchmark
// against baseline + the four evaluated policies) at full fidelity and at
// each of the given sampling factors, and reports wall-clock speedup plus
// the extrapolation error of per-level miss ratios, full-system energy and
// EDP. All passes share one trace materialization cache, pre-warmed before
// any pass is timed, so the comparison measures simulation cost, not trace
// generation.
func CalibrateSetSampling(ctx context.Context, opts Options, factors []int) (*SamplingReport, error) {
	if opts.TraceCacheBytes == 0 {
		// Size the shared budget to keep every pre-warmed stream resident
		// for the whole calibration: an evicted trace would be regenerated
		// silently inside a timed pass, polluting the speedup the pass is
		// supposed to measure. 4 bytes/access upper-bounds the varint
		// encoding (~3.4 observed across the fig9 workloads).
		sized := opts
		sized.normalize()
		need := int64(sized.Accesses+sized.Warmup) * 4 * int64(len(sized.Benchmarks))
		if need > DefaultTraceCacheBytes {
			opts.TraceCacheBytes = need
		}
	}
	opts.normalize()
	if len(factors) == 0 {
		factors = SamplingFactors
	}
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)

	rep := &SamplingReport{
		Benchmarks: opts.Benchmarks,
		Accesses:   opts.Accesses,
		Warmup:     opts.Warmup,
		Seed:       opts.Seed,
		Runs:       len(opts.Benchmarks) * len(pols),
	}
	for _, p := range pols {
		rep.Policies = append(rep.Policies, p.String())
	}

	// Pre-warm the trace cache every pass shares (one materialized stream
	// per workload; the key is sampling-independent, so every pass replays
	// the same buffers).
	warmer := NewSuite(opts)
	for _, wl := range opts.Benchmarks {
		if _, err := warmer.source(ctx, wl, opts.Seed, opts.Warmup+opts.Accesses); err != nil {
			return nil, err
		}
	}

	pass := func(k int) ([]sampleRunMetrics, float64, error) {
		// A fresh memo per pass over the warmer's trace cache: the pass
		// replays the pre-warmed streams, and its results are dropped with
		// it once their metrics are read.
		su := &Suite{opts: opts, runs: lru.New[*hier.Result](0, nil), traces: warmer.traces}
		var specs []RunSpec
		for _, wl := range opts.Benchmarks {
			for _, p := range pols {
				sp := spec.Single(wl, p)
				if k > 1 {
					sp.Sampling = k
				}
				specs = append(specs, sp)
			}
		}
		start := time.Now()
		if err := su.PrefetchContext(ctx, specs); err != nil {
			return nil, 0, err
		}
		wall := time.Since(start).Seconds()
		out := make([]sampleRunMetrics, len(specs))
		for i, sp := range specs {
			out[i] = metricsOf(su.RunS(sp))
		}
		return out, wall, nil
	}

	full, fullWall, err := pass(1)
	if err != nil {
		return nil, err
	}
	rep.FullWallSeconds = fullWall

	for _, k := range factors {
		got, wall, err := pass(k)
		if err != nil {
			return nil, err
		}
		fr := SamplingFactorResult{Factor: k, WallSeconds: wall}
		if wall > 0 {
			fr.Speedup = fullWall / wall
		}
		for i := range got {
			fr.L2MissRatio.observe(got[i].l2MissRatio, full[i].l2MissRatio)
			fr.L3MissRatio.observe(got[i].l3MissRatio, full[i].l3MissRatio)
			fr.EnergyPJ.observe(got[i].energyPJ, full[i].energyPJ)
			fr.EDP.observe(got[i].edp, full[i].edp)
			fr.SampledShare += got[i].sampledShare
		}
		n := len(got)
		fr.L2MissRatio.finish(n)
		fr.L3MissRatio.finish(n)
		fr.EnergyPJ.finish(n)
		fr.EDP.finish(n)
		if n > 0 {
			fr.SampledShare /= float64(n)
		}
		rep.Factors = append(rep.Factors, fr)
	}
	return rep, nil
}
