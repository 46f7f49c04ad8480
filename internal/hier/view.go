package hier

import (
	"repro/internal/cache"
	"repro/internal/energy"
)

// This file is a shim. perfbench reads *System from experiments.Suite's
// RunAll, which memoizes Results; until it reads Results, RunAll hands it
// stats-only views, and System keeps the accessors perfbench calls as
// delegates.

// View returns a stats-only System over r. Its Config, its L1, L2 and L3
// (stats-only levels that answer Name and Stats), its run counters and the
// accessor delegates answer from r; running, resetting, snapshotting or
// checking it panics.
func (r *Result) View() *System {
	cfg := r.Config
	s := &System{
		cfg:      cfg,
		view:     r,
		l3:       cache.StatsOnly(cfg.L3Params.Name, r.L3),
		Counters: r.Counters,
	}
	l1Name := energy.L1Params(cfg.Core).Name
	for i := range r.Cores {
		c := &r.Cores[i]
		s.cores = append(s.cores, &coreNode{
			id:           i,
			l1:           cache.StatsOnly(l1Name, c.L1),
			l2:           cache.StatsOnly(cfg.L2Params.Name, c.L2),
			CoreCounters: c.CoreCounters,
		})
	}
	return s
}

// mustBeLive panics when s is a stats-only view, which holds no simulator
// state to run, reset, snapshot or check.
func (s *System) mustBeLive(op string) {
	if s.view != nil {
		panic("hier: " + op + " on a stats-only view of a finished run " +
			"(the perfbench shim experiments.Suite.RunAll returns); only a System from hier.New runs")
	}
}

// The accessor delegates, one for each accessor perfbench calls. On a live
// System each call is a full capture (an allocation and a pass over every
// L3 line), so a caller that needs several statistics calls Result once and
// reads them from it; on a view each call returns the memoized Result.

func (s *System) TotalInstrs() uint64                 { return s.Result().TotalInstrs() }
func (s *System) MaxCycles() float64                  { return s.Result().MaxCycles() }
func (s *System) IPC(i int) float64                   { return s.Result().IPC(i) }
func (s *System) EOUPJ() float64                      { return s.Result().EOUPJ() }
func (s *System) L2TotalPJ() float64                  { return s.Result().L2TotalPJ() }
func (s *System) L3TotalPJ() float64                  { return s.Result().L3TotalPJ() }
func (s *System) L1TotalPJ() float64                  { return s.Result().L1TotalPJ() }
func (s *System) CorePJ() float64                     { return s.Result().CorePJ() }
func (s *System) DRAMPJ() float64                     { return s.Result().DRAMPJ() }
func (s *System) FullSystemPJ() float64               { return s.Result().FullSystemPJ() }
func (s *System) L2Misses(withMetadata bool) uint64   { return s.Result().L2Misses(withMetadata) }
func (s *System) L3Misses(withMetadata bool) uint64   { return s.Result().L3Misses(withMetadata) }
func (s *System) DRAMTraffic() uint64                 { return s.Result().DRAMTraffic() }
func (s *System) SampleK() int                        { return s.Result().SampleK() }
func (s *System) ScaledMaxCycles() float64            { return s.Result().ScaledMaxCycles() }
func (s *System) ScaledL2Misses(withMeta bool) uint64 { return s.Result().ScaledL2Misses(withMeta) }
func (s *System) ScaledL3Misses(withMeta bool) uint64 { return s.Result().ScaledL3Misses(withMeta) }
func (s *System) ScaledDRAMTraffic() uint64           { return s.Result().ScaledDRAMTraffic() }
func (s *System) ScaledL1TotalPJ() float64            { return s.Result().ScaledL1TotalPJ() }
func (s *System) ScaledL2TotalPJ() float64            { return s.Result().ScaledL2TotalPJ() }
func (s *System) ScaledL3TotalPJ() float64            { return s.Result().ScaledL3TotalPJ() }
func (s *System) ScaledDRAMPJ() float64               { return s.Result().ScaledDRAMPJ() }
func (s *System) ScaledFullSystemPJ() float64         { return s.Result().ScaledFullSystemPJ() }
