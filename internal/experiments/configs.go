package experiments

import (
	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// This file holds the spec constructors for every simulated variant and
// the run lists of the experiment table's rows. They are hoisted out of
// the figure methods so SpecsFor can name the exact same runs a figure
// will later consume — Prefetch then hits the same memo keys the figure
// does. Each constructor returns a declarative RunSpec; sizing (accesses,
// warmup, seed) is stamped in by the suite at resolve time.

// htreeSpec is the Section 2.1 H-tree interconnect variant (baseline
// policy, uniform per-way energies from the H-tree wire model).
func htreeSpec(wl string) RunSpec {
	sp := spec.Single(wl, hier.Baseline)
	sp.Topology = spec.TopoHTree
	return sp
}

// tech22Spec is the Section 6 22nm technology-scaling variant.
func tech22Spec(wl string, p hier.PolicyKind) RunSpec {
	sp := spec.Single(wl, p)
	sp.Tech = spec.Tech22
	return sp
}

// binWidths is the Section 6 distribution-accuracy sweep.
var binWidths = []uint8{2, 3, 4, 6, 8}

// bitsSpec is the distribution counter-width sensitivity variant.
func bitsSpec(wl string, b uint8) RunSpec {
	sp := spec.Single(wl, hier.SLIPABP)
	sp.BinBits = b
	return sp
}

// noSampleSpec is the always-sample variant motivating Section 4.2.
func noSampleSpec(wl string) RunSpec {
	sp := spec.Single(wl, hier.SLIPABP)
	sp.DisableSampling = true
	return sp
}

// matrix is every configured benchmark under each of pols,
// benchmark-major.
func (s *Suite) matrix(pols ...hier.PolicyKind) []RunSpec {
	var specs []RunSpec
	for _, wl := range s.opts.Benchmarks {
		for _, p := range pols {
			specs = append(specs, spec.Single(wl, p))
		}
	}
	return specs
}

// perBenchmark is one variant spec per configured benchmark.
func (s *Suite) perBenchmark(variant func(string) RunSpec) []RunSpec {
	var specs []RunSpec
	for _, wl := range s.opts.Benchmarks {
		specs = append(specs, variant(wl))
	}
	return specs
}

// evalSpecs is the fig9 matrix: the baseline and the paper's comparison
// policies over every configured benchmark.
func evalSpecs(s *Suite) []RunSpec {
	return s.matrix(append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)...)
}

// slipSpecs is the baseline, SLIP and SLIP+ABP over every benchmark.
func slipSpecs(s *Suite) []RunSpec {
	return s.matrix(hier.Baseline, hier.SLIP, hier.SLIPABP)
}

// fig1Specs is the baseline over Figure 1's fixed benchmark set.
func fig1Specs(*Suite) []RunSpec {
	var specs []RunSpec
	for _, wl := range workloads.Fig1Set() {
		specs = append(specs, spec.Single(wl, hier.Baseline))
	}
	return specs
}

func htreeSpecs(s *Suite) []RunSpec {
	return append(s.matrix(hier.Baseline), s.perBenchmark(htreeSpec)...)
}

func fig16Specs(*Suite) []RunSpec {
	var specs []RunSpec
	for _, m := range workloads.Mixes() {
		for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
			specs = append(specs, spec.ForMix(m.A, m.B, p))
		}
	}
	return specs
}

func tech22Specs(s *Suite) []RunSpec {
	var specs []RunSpec
	for _, wl := range s.opts.Benchmarks {
		for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
			specs = append(specs, tech22Spec(wl, p))
		}
	}
	return specs
}

func binWidthSpecs(s *Suite) []RunSpec {
	specs := s.matrix(hier.Baseline)
	for _, b := range binWidths {
		specs = append(specs, s.perBenchmark(func(wl string) RunSpec { return bitsSpec(wl, b) })...)
	}
	return specs
}

func samplingSpecs(s *Suite) []RunSpec {
	return append(s.matrix(hier.SLIPABP), s.perBenchmark(noSampleSpec)...)
}

// sampledSpecs is the fig9 matrix with every run's set-sampling factor set
// to k. k = 1 is explicit full fidelity: it canonicalizes to fig9's own
// runs, and a suite-wide Options.Sampling does not override it.
func sampledSpecs(s *Suite, k int) []RunSpec {
	specs := evalSpecs(s)
	for i := range specs {
		specs[i].Sampling = k
	}
	return specs
}

// setSamplingSpecs is the full-fidelity reference, then one sampled fig9
// matrix per factor of SamplingFactors.
func setSamplingSpecs(s *Suite) []RunSpec {
	specs := sampledSpecs(s, 1)
	for _, k := range SamplingFactors {
		specs = append(specs, sampledSpecs(s, k)...)
	}
	return specs
}
