package hier

// The statistics reset after warmup, and the accessors over a finished
// run's Result, shaped after the metrics the paper's figures report.
// Energies are picojoules.

import "repro/internal/energy"

// ResetStats discards everything accumulated so far — energies, hit/miss
// and traffic counters, timing, NR histogram, insertion classes — while
// keeping all cache, TLB, PTE and policy state. Call it after a warmup
// phase so reported numbers reflect steady state, the analogue of the
// paper's fast-forward before measured simpoints.
func (s *System) ResetStats() {
	s.mustBeLive("ResetStats")
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
func (r *Result) Instrs(i int) uint64 { return r.Cores[i].Instrs }

// Cycles returns core i's cycle count under the stall-based timing model:
// instructions x base CPI plus total stall cycles.
func (r *Result) Cycles(i int) float64 {
	c := &r.Cores[i]
	return float64(c.Instrs)*r.Config.Core.BaseCPI + float64(c.stalls())
}

// TotalInstrs sums instructions over all cores.
func (r *Result) TotalInstrs() uint64 {
	var t uint64
	for i := range r.Cores {
		t += r.Cores[i].Instrs
	}
	return t
}

// MaxCycles returns the slowest core's cycles (the run's wall time).
func (r *Result) MaxCycles() float64 {
	m := 0.0
	for i := range r.Cores {
		if c := r.Cycles(i); c > m {
			m = c
		}
	}
	return m
}

// IPC returns core i's instructions per cycle.
func (r *Result) IPC(i int) float64 {
	cyc := r.Cycles(i)
	if cyc == 0 {
		return 0
	}
	return float64(r.Cores[i].Instrs) / cyc
}

// EOUPJ returns the optimizer energy (1.27 pJ per operation), derived from
// the integer operation count.
func (r *Result) EOUPJ() float64 { return float64(r.EOUOps) * energy.EOUOpPJ }

// L2TotalPJ sums all L2 energy (access + movement + metadata) across cores,
// including the L2 share of EOU energy.
func (r *Result) L2TotalPJ() float64 {
	t := 0.0
	for i := range r.Cores {
		t += r.Cores[i].L2.TotalPJ()
	}
	return t + r.EOUPJ()/2
}

// L3TotalPJ returns all L3 energy including its EOU share.
func (r *Result) L3TotalPJ() float64 { return r.L3.TotalPJ() + r.EOUPJ()/2 }

// L2AccessPJ / L2MovementPJ split the Figure 11 components across cores.
func (r *Result) L2AccessPJ() float64 {
	t := 0.0
	for i := range r.Cores {
		t += r.Cores[i].L2.AccessPJ.PJ()
	}
	return t
}

// L2MovementPJ sums movement (incl. insertion/writeback) energy across L2s.
func (r *Result) L2MovementPJ() float64 {
	t := 0.0
	for i := range r.Cores {
		t += r.Cores[i].L2.MovementPJ.PJ()
	}
	return t
}

// L3AccessPJ returns the L3 hit-servicing energy.
func (r *Result) L3AccessPJ() float64 { return r.L3.AccessPJ.PJ() }

// L3MovementPJ returns L3 movement + insertion + writeback energy.
func (r *Result) L3MovementPJ() float64 { return r.L3.MovementPJ.PJ() }

// L1TotalPJ sums L1 energies across cores.
func (r *Result) L1TotalPJ() float64 {
	t := 0.0
	for i := range r.Cores {
		t += r.Cores[i].L1.TotalPJ()
	}
	return t
}

// CorePJ returns the non-memory core energy (per-instruction constant).
func (r *Result) CorePJ() float64 {
	return float64(r.TotalInstrs()) * r.Config.Core.PJPerInstr
}

// DRAMPJ returns main-memory energy.
func (r *Result) DRAMPJ() float64 { return r.DRAM.EnergyPJ.PJ() }

// FullSystemPJ is the Figure 10 denominator: core + L1 + L2 + L3 + DRAM
// dynamic energy (EOU energy is inside the level totals).
func (r *Result) FullSystemPJ() float64 {
	return r.CorePJ() + r.L1TotalPJ() + r.L2TotalPJ() + r.L3TotalPJ() + r.DRAMPJ()
}

// L2Misses returns demand (non-metadata) L2 misses; with metadata included
// it is the Figure 12 "relative misses" numerator.
func (r *Result) L2Misses(withMetadata bool) uint64 {
	m := r.L2DemandMisses
	if withMetadata {
		m += r.L2MetaMisses
	}
	return m
}

// L3Misses mirrors L2Misses for the L3.
func (r *Result) L3Misses(withMetadata bool) uint64 {
	m := r.L3DemandMisses
	if withMetadata {
		m += r.L3MetaMisses
	}
	return m
}

// DRAMTraffic returns total line transfers, the Figure 12/16 DRAM metric.
func (r *Result) DRAMTraffic() uint64 { return r.DRAM.TotalAccesses() }

// DRAMDemandTraffic excludes profile metadata transfers.
func (r *Result) DRAMDemandTraffic() uint64 {
	return r.DRAM.Reads.Value() + r.DRAM.Writes.Value()
}

// SublevelHitFractions returns the share of hits served per sublevel for
// level 2 (aggregated over cores) or 3 — the Figure 15 data.
func (r *Result) SublevelHitFractions(level int) []float64 {
	var per []uint64
	switch level {
	case 2:
		per = make([]uint64, len(r.Config.L2Params.SublevelWays))
		for c := range r.Cores {
			for i, v := range r.Cores[c].L2.HitsPerSublevel {
				per[i] += v
			}
		}
	case 3:
		per = append(per, r.L3.HitsPerSublevel...)
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
func (r *Result) InsertionClassFractions(level int) [4]float64 {
	var counts [4]uint64
	switch level {
	case 2:
		for c := range r.Cores {
			for i, v := range r.Cores[c].L2InsertClasses {
				counts[i] += v
			}
		}
	case 3:
		counts = r.L3InsertClasses
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
func (r *Result) SampleK() int {
	if r.Config.SampleK > 1 {
		return r.Config.SampleK
	}
	return 1
}

// scale returns the extrapolation factor as a float.
func (r *Result) scale() float64 { return float64(r.SampleK()) }

// ScaledCycles extrapolates core i's cycles: instruction time (base CPI)
// is exact — every access, sampled or skipped, contributes it — while
// stall time accrues only from the sampled 1/K of accesses and is scaled
// by K.
func (r *Result) ScaledCycles(i int) float64 {
	if r.Config.SampleK <= 1 {
		return r.Cycles(i)
	}
	return r.Cycles(i) + (r.scale()-1)*float64(r.Cores[i].stalls())
}

// ScaledMaxCycles is MaxCycles over ScaledCycles — the extrapolated run
// wall time, the EDP time factor for sampled runs.
func (r *Result) ScaledMaxCycles() float64 {
	m := 0.0
	for i := range r.Cores {
		if c := r.ScaledCycles(i); c > m {
			m = c
		}
	}
	return m
}

// ScaledL2Misses / ScaledL3Misses / ScaledDRAMTraffic extrapolate the
// sampled counters by K.
func (r *Result) ScaledL2Misses(withMetadata bool) uint64 {
	return r.L2Misses(withMetadata) * uint64(r.SampleK())
}

// ScaledL3Misses mirrors ScaledL2Misses for the L3.
func (r *Result) ScaledL3Misses(withMetadata bool) uint64 {
	return r.L3Misses(withMetadata) * uint64(r.SampleK())
}

// ScaledDRAMTraffic extrapolates total DRAM line transfers.
func (r *Result) ScaledDRAMTraffic() uint64 {
	return r.DRAMTraffic() * uint64(r.SampleK())
}

// ScaledL1TotalPJ / ScaledL2TotalPJ / ScaledL3TotalPJ / ScaledDRAMPJ
// extrapolate per-level energies (EOU energy scales with its level).
func (r *Result) ScaledL1TotalPJ() float64 { return r.L1TotalPJ() * r.scale() }

// ScaledL2TotalPJ extrapolates L2 energy including its EOU share.
func (r *Result) ScaledL2TotalPJ() float64 { return r.L2TotalPJ() * r.scale() }

// ScaledL3TotalPJ extrapolates L3 energy including its EOU share.
func (r *Result) ScaledL3TotalPJ() float64 { return r.L3TotalPJ() * r.scale() }

// ScaledDRAMPJ extrapolates main-memory energy.
func (r *Result) ScaledDRAMPJ() float64 { return r.DRAMPJ() * r.scale() }

// ScaledFullSystemPJ is the extrapolated Figure 10 denominator: core
// energy is exact (instruction counts are), memory-hierarchy energy is
// scaled by K.
func (r *Result) ScaledFullSystemPJ() float64 {
	if r.Config.SampleK <= 1 {
		return r.FullSystemPJ()
	}
	return r.CorePJ() + r.scale()*(r.L1TotalPJ()+r.L2TotalPJ()+r.L3TotalPJ()+r.DRAMPJ())
}

// ScaledEDP is the extrapolated energy-delay product (pJ * cycles).
func (r *Result) ScaledEDP() float64 {
	return r.ScaledFullSystemPJ() * r.ScaledMaxCycles()
}

// NRFractions returns the Figure 1 breakdown of lines by reuse count: the
// L3-evicted lines in NRHist plus the lines resident in the L3 at capture.
func (r *Result) NRFractions() [4]float64 {
	hist := r.NRHist
	for i, v := range r.NRResident {
		hist[i] += v
	}
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
