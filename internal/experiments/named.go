package experiments

import (
	"fmt"
	"strings"

	"repro/internal/hier"
)

// experiment is one row of the experiment table: its name, the runs its
// render reads (nil for an experiment that simulates nothing) and the
// render, which prints its tables to the suite's Out.
type experiment struct {
	name   string
	specs  func(*Suite) []RunSpec
	render func(*Suite)
}

// experimentTable is every experiment in presentation order: the paper's
// evaluation, then two tables that are not paper figures (every policy of
// the policy table side by side, and the set-sampling calibration).
// slipbench's -exp all, slipd's /v1/experiments and every listing of valid
// names follow it.
var experimentTable = []experiment{
	{"fig1", fig1Specs, func(s *Suite) { s.Fig1() }},
	{"fig3", nil, func(s *Suite) { s.Fig3() }},
	{"table2", nil, func(s *Suite) { s.Table2() }},
	{"htree", htreeSpecs, func(s *Suite) { s.HTree() }},
	{"fig9", evalSpecs, func(s *Suite) { s.Fig9() }},
	{"fig10", slipSpecs, func(s *Suite) { s.Fig10() }},
	{"fig11", evalSpecs, func(s *Suite) { s.Fig11() }},
	{"fig12", slipSpecs, func(s *Suite) { s.Fig12() }},
	{"fig13", evalSpecs, func(s *Suite) { s.Fig13() }},
	{"fig14", func(s *Suite) []RunSpec { return s.matrix(hier.SLIPABP) }, func(s *Suite) { s.Fig14() }},
	{"fig15", evalSpecs, func(s *Suite) { s.Fig15() }},
	{"fig16", fig16Specs, func(s *Suite) { s.Fig16() }},
	{"tech22", tech22Specs, func(s *Suite) { s.Tech22() }},
	{"binwidth", binWidthSpecs, func(s *Suite) { s.BinWidth() }},
	{"sampling", samplingSpecs, func(s *Suite) { s.Sampling() }},
	{"policies", func(s *Suite) []RunSpec { return s.matrix(hier.AllPolicies()...) }, func(s *Suite) { s.Policies() }},
	{"setsampling", setSamplingSpecs, func(s *Suite) { s.SetSampling() }},
}

// ExperimentNames returns every experiment name in presentation order.
func ExperimentNames() []string {
	names := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		names[i] = e.name
	}
	return names
}

// lookup returns the named row, or an error naming the valid set.
func lookup(name string) (experiment, error) {
	for _, e := range experimentTable {
		if e.name == name {
			return e, nil
		}
	}
	return experiment{}, fmt.Errorf("experiments: unknown experiment %q (valid: %s)",
		name, strings.Join(ExperimentNames(), ", "))
}

// ValidExperiment reports whether name is a known experiment.
func ValidExperiment(name string) bool {
	_, err := lookup(name)
	return err == nil
}

// RunNamed runs the named experiment, printing its tables to the suite's
// configured Out, and errors (naming the valid set) on an unknown name.
// Simulations the experiment needs and has not memoized run inline; callers
// that want them cancellable or parallel should PrefetchContext the
// SpecsFor set first.
func (s *Suite) RunNamed(name string) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	e.render(s)
	return nil
}

// SpecsFor returns the simulations an experiment will consume, in a
// deterministic order, so a caller can Prefetch the union for several
// experiments before printing any of them. Experiments that simulate
// nothing (fig3, table2) return nil; unknown names panic with the valid
// set.
func (s *Suite) SpecsFor(exp string) []RunSpec {
	e, err := lookup(exp)
	if err != nil {
		panic(err.Error())
	}
	if e.specs == nil {
		return nil
	}
	return e.specs(s)
}

// SpecsForAll unions SpecsFor over several experiments, dropping duplicate
// memo keys while keeping first-seen order stable.
func (s *Suite) SpecsForAll(exps []string) []RunSpec {
	seen := make(map[string]bool)
	var specs []RunSpec
	for _, exp := range exps {
		for _, sp := range s.SpecsFor(exp) {
			if k := s.KeyFor(sp); !seen[k] {
				seen[k] = true
				specs = append(specs, sp)
			}
		}
	}
	return specs
}
