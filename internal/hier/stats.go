package hier

// Accessors over a finished run, shaped after the metrics the paper's
// figures report. Energies are picojoules.

import (
	"repro/internal/cache"
	"repro/internal/energy"
)

// ResetStats discards everything accumulated so far — energies, hit/miss
// and traffic counters, timing, NR histogram, insertion classes — while
// keeping all cache, TLB, PTE and policy state. Call it after a warmup
// phase so reported numbers reflect steady state, the analogue of the
// paper's fast-forward before measured simpoints.
func (s *System) ResetStats() {
	for _, c := range s.cores {
		c.l1.Stats.Reset()
		c.l2.Stats.Reset()
		c.Instrs = 0
		c.demandStalls = 0
		c.policyStalls = 0
	}
	s.l3.Stats.Reset()
	s.dram.Stats.Reads.Reset()
	s.dram.Stats.Writes.Reset()
	s.dram.Stats.MetadataReads.Reset()
	s.dram.Stats.MetadataWrites.Reset()
	s.dram.Stats.EnergyPJ.Reset()
	s.NRHist = [4]uint64{}
	s.L2DemandMisses, s.L2MetaAccesses, s.L2MetaMisses = 0, 0, 0
	s.L3DemandMisses, s.L3MetaAccesses, s.L3MetaMisses = 0, 0, 0
	s.EOUOps = 0
	s.SampledAccesses, s.SkippedAccesses = 0, 0
	for _, d := range s.slipL2 {
		d.InsertClasses = [4]uint64{}
	}
	if s.slipL3 != nil {
		s.slipL3.InsertClasses = [4]uint64{}
	}
}

// Instrs returns the instructions retired by core i.
func (s *System) Instrs(i int) uint64 { return s.cores[i].Instrs }

// Cycles returns core i's cycle count under the stall-based timing model:
// instructions x base CPI plus total stall cycles.
func (s *System) Cycles(i int) float64 {
	c := s.cores[i]
	return float64(c.Instrs)*s.cfg.Core.BaseCPI + float64(c.stalls())
}

// TotalInstrs sums instructions over all cores.
func (s *System) TotalInstrs() uint64 {
	var t uint64
	for _, c := range s.cores {
		t += c.Instrs
	}
	return t
}

// MaxCycles returns the slowest core's cycles (the run's wall time).
func (s *System) MaxCycles() float64 {
	m := 0.0
	for i := range s.cores {
		if c := s.Cycles(i); c > m {
			m = c
		}
	}
	return m
}

// IPC returns core i's instructions per cycle.
func (s *System) IPC(i int) float64 {
	cyc := s.Cycles(i)
	if cyc == 0 {
		return 0
	}
	return float64(s.cores[i].Instrs) / cyc
}

// EOUPJ returns the optimizer energy (1.27 pJ per operation), derived from
// the integer operation count.
func (s *System) EOUPJ() float64 { return float64(s.EOUOps) * energy.EOUOpPJ }

// L2TotalPJ sums all L2 energy (access + movement + metadata) across cores,
// including the L2 share of EOU energy.
func (s *System) L2TotalPJ() float64 {
	t := 0.0
	for _, c := range s.cores {
		t += c.l2.Stats.TotalPJ()
	}
	return t + s.EOUPJ()/2
}

// L3TotalPJ returns all L3 energy including its EOU share.
func (s *System) L3TotalPJ() float64 { return s.l3.Stats.TotalPJ() + s.EOUPJ()/2 }

// L2AccessPJ / L2MovementPJ split the Figure 11 components across cores.
func (s *System) L2AccessPJ() float64 {
	t := 0.0
	for _, c := range s.cores {
		t += c.l2.Stats.AccessPJ.PJ()
	}
	return t
}

// L2MovementPJ sums movement (incl. insertion/writeback) energy across L2s.
func (s *System) L2MovementPJ() float64 {
	t := 0.0
	for _, c := range s.cores {
		t += c.l2.Stats.MovementPJ.PJ()
	}
	return t
}

// L3AccessPJ returns the L3 hit-servicing energy.
func (s *System) L3AccessPJ() float64 { return s.l3.Stats.AccessPJ.PJ() }

// L3MovementPJ returns L3 movement + insertion + writeback energy.
func (s *System) L3MovementPJ() float64 { return s.l3.Stats.MovementPJ.PJ() }

// L1TotalPJ sums L1 energies across cores.
func (s *System) L1TotalPJ() float64 {
	t := 0.0
	for _, c := range s.cores {
		t += c.l1.Stats.TotalPJ()
	}
	return t
}

// CorePJ returns the non-memory core energy (per-instruction constant).
func (s *System) CorePJ() float64 {
	return float64(s.TotalInstrs()) * s.cfg.Core.PJPerInstr
}

// DRAMPJ returns main-memory energy.
func (s *System) DRAMPJ() float64 { return s.dram.Stats.EnergyPJ.PJ() }

// FullSystemPJ is the Figure 10 denominator: core + L1 + L2 + L3 + DRAM
// dynamic energy (EOU energy is inside the level totals).
func (s *System) FullSystemPJ() float64 {
	return s.CorePJ() + s.L1TotalPJ() + s.L2TotalPJ() + s.L3TotalPJ() + s.DRAMPJ()
}

// L2Misses returns demand (non-metadata) L2 misses; with metadata included
// it is the Figure 12 "relative misses" numerator.
func (s *System) L2Misses(withMetadata bool) uint64 {
	m := s.L2DemandMisses
	if withMetadata {
		m += s.L2MetaMisses
	}
	return m
}

// L3Misses mirrors L2Misses for the L3.
func (s *System) L3Misses(withMetadata bool) uint64 {
	m := s.L3DemandMisses
	if withMetadata {
		m += s.L3MetaMisses
	}
	return m
}

// DRAMTraffic returns total line transfers, the Figure 12/16 DRAM metric.
func (s *System) DRAMTraffic() uint64 { return s.dram.Stats.TotalAccesses() }

// DRAMDemandTraffic excludes profile metadata transfers.
func (s *System) DRAMDemandTraffic() uint64 {
	return s.dram.Stats.Reads.Value() + s.dram.Stats.Writes.Value()
}

// SublevelHitFractions returns the share of hits served per sublevel for
// level 2 (aggregated over cores) or 3 — the Figure 15 data.
func (s *System) SublevelHitFractions(level int) []float64 {
	var per []uint64
	switch level {
	case 2:
		per = make([]uint64, len(s.cfg.L2Params.SublevelWays))
		for _, c := range s.cores {
			for i, v := range c.l2.Stats.HitsPerSublevel {
				per[i] += v
			}
		}
	case 3:
		per = append(per, s.l3.Stats.HitsPerSublevel...)
	default:
		panic("hier: SublevelHitFractions wants level 2 or 3")
	}
	var total uint64
	for _, v := range per {
		total += v
	}
	out := make([]float64, len(per))
	if total == 0 {
		return out
	}
	for i, v := range per {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// InsertionClassFractions returns the Figure 14 breakdown (ABP, partial
// bypass, default, other) of insertions at the given level; zeros for
// non-SLIP policies.
func (s *System) InsertionClassFractions(level int) [4]float64 {
	var counts [4]uint64
	switch level {
	case 2:
		for _, d := range s.slipL2 {
			for i, v := range d.InsertClasses {
				counts[i] += v
			}
		}
	case 3:
		if s.slipL3 != nil {
			counts = s.slipL3.InsertClasses
		}
	default:
		panic("hier: InsertionClassFractions wants level 2 or 3")
	}
	var total uint64
	for _, v := range counts {
		total += v
	}
	var out [4]float64
	if total == 0 {
		return out
	}
	for i, v := range counts {
		out[i] = float64(v) / float64(total)
	}
	return out
}

// Scaled accessors: set-sampled runs simulate 1/K of the accesses and
// extrapolate by K. Every Scaled* accessor returns the raw value verbatim
// when sampling is off (SampleK <= 1), so callers can use them
// unconditionally. Raw accessors above always report exactly what the
// sampled simulation did, never extrapolations — keeping both visible is
// what lets the calibration harness measure extrapolation error at all.
// Miss *ratios* computed from raw counters are already unbiased: numerator
// and denominator scale together.

// SampleK returns the sampling factor (1 when sampling is off).
func (s *System) SampleK() int {
	if s.cfg.SampleK > 1 {
		return s.cfg.SampleK
	}
	return 1
}

// scale returns the extrapolation factor as a float.
func (s *System) scale() float64 { return float64(s.SampleK()) }

// ScaledCycles extrapolates core i's cycles: instruction time (base CPI)
// is exact — every access, sampled or skipped, contributes it — while
// stall time accrues only from the sampled 1/K of accesses and is scaled
// by K.
func (s *System) ScaledCycles(i int) float64 {
	if s.cfg.SampleK <= 1 {
		return s.Cycles(i)
	}
	return s.Cycles(i) + (s.scale()-1)*float64(s.cores[i].stalls())
}

// ScaledMaxCycles is MaxCycles over ScaledCycles — the extrapolated run
// wall time, the EDP time factor for sampled runs.
func (s *System) ScaledMaxCycles() float64 {
	m := 0.0
	for i := range s.cores {
		if c := s.ScaledCycles(i); c > m {
			m = c
		}
	}
	return m
}

// ScaledL2Misses / ScaledL3Misses / ScaledDRAMTraffic extrapolate the
// sampled counters by K.
func (s *System) ScaledL2Misses(withMetadata bool) uint64 {
	return s.L2Misses(withMetadata) * uint64(s.SampleK())
}

// ScaledL3Misses mirrors ScaledL2Misses for the L3.
func (s *System) ScaledL3Misses(withMetadata bool) uint64 {
	return s.L3Misses(withMetadata) * uint64(s.SampleK())
}

// ScaledDRAMTraffic extrapolates total DRAM line transfers.
func (s *System) ScaledDRAMTraffic() uint64 {
	return s.DRAMTraffic() * uint64(s.SampleK())
}

// ScaledL1TotalPJ / ScaledL2TotalPJ / ScaledL3TotalPJ / ScaledDRAMPJ
// extrapolate per-level energies (EOU energy scales with its level).
func (s *System) ScaledL1TotalPJ() float64 { return s.L1TotalPJ() * s.scale() }

// ScaledL2TotalPJ extrapolates L2 energy including its EOU share.
func (s *System) ScaledL2TotalPJ() float64 { return s.L2TotalPJ() * s.scale() }

// ScaledL3TotalPJ extrapolates L3 energy including its EOU share.
func (s *System) ScaledL3TotalPJ() float64 { return s.L3TotalPJ() * s.scale() }

// ScaledDRAMPJ extrapolates main-memory energy.
func (s *System) ScaledDRAMPJ() float64 { return s.DRAMPJ() * s.scale() }

// ScaledFullSystemPJ is the extrapolated Figure 10 denominator: core
// energy is exact (instruction counts are), memory-hierarchy energy is
// scaled by K.
func (s *System) ScaledFullSystemPJ() float64 {
	if s.cfg.SampleK <= 1 {
		return s.FullSystemPJ()
	}
	return s.CorePJ() + s.scale()*(s.L1TotalPJ()+s.L2TotalPJ()+s.L3TotalPJ()+s.DRAMPJ())
}

// ScaledEDP is the extrapolated energy-delay product (pJ * cycles).
func (s *System) ScaledEDP() float64 {
	return s.ScaledFullSystemPJ() * s.ScaledMaxCycles()
}

// NRFractions returns the Figure 1 breakdown of lines by reuse count: the
// L3-evicted lines in NRHist plus the lines still resident in the L3. It
// only reads the system, so repeated calls agree.
func (s *System) NRFractions() [4]float64 {
	hist := s.NRHist
	s.l3.ForEachLine(func(_, _ int, ln cache.Line) { hist[nrBucket(ln.Reuses)]++ })
	var total uint64
	for _, v := range hist {
		total += v
	}
	var out [4]float64
	if total == 0 {
		return out
	}
	for i, v := range hist {
		out[i] = float64(v) / float64(total)
	}
	return out
}
