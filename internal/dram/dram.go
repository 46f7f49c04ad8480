// Package dram models main memory as the paper does: a flat access latency
// (Table 1: 100 cycles) and a per-bit transfer energy (Table 2: 20 pJ/bit,
// derived from Vogelsang's Idd4 + Idd7RW currents), plus the traffic
// counters behind the DRAM-traffic results of Figures 12 and 16.
package dram

import (
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Stats counts DRAM events. Reads and writes are full cache-line transfers;
// MetadataReads/Writes are the 32b distribution-profile transfers that the
// sampling machinery generates. Each one costs AccessPJ, so energy is a
// price on TotalAccesses, not a counter of its own.
type Stats struct {
	Reads          stats.Counter
	Writes         stats.Counter
	MetadataReads  stats.Counter
	MetadataWrites stats.Counter
}

// TotalAccesses returns all line-granularity transfers (the "DRAM traffic"
// metric of the paper).
func (s *Stats) TotalAccesses() uint64 {
	return s.Reads.Value() + s.Writes.Value() + s.MetadataReads.Value() + s.MetadataWrites.Value()
}

// DRAM is the main-memory endpoint of the hierarchy.
type DRAM struct {
	p energy.DRAMParams

	Stats Stats
}

// New builds a DRAM with the given parameters.
func New(p energy.DRAMParams) *DRAM {
	if p.LatencyCycles <= 0 || p.PJPerBit <= 0 {
		panic("dram: parameters must be positive")
	}
	return &DRAM{p: p}
}

// Read services a demand line read and returns its latency in cycles.
func (d *DRAM) Read() int {
	d.Stats.Reads.Inc()
	return d.p.LatencyCycles
}

// Write services a writeback of a full line.
func (d *DRAM) Write() {
	d.Stats.Writes.Inc()
}

// MetadataRead services a 32-bit profile fetch and returns its latency.
// The transfer still occupies a whole burst, so it is charged and counted
// as a line access — the conservative accounting that makes the paper's
// "metadata traffic below 1.5% of DRAM accesses" claim meaningful.
func (d *DRAM) MetadataRead() int {
	d.Stats.MetadataReads.Inc()
	return d.p.LatencyCycles
}

// MetadataWrite services a 32-bit profile writeback.
func (d *DRAM) MetadataWrite() {
	d.Stats.MetadataWrites.Inc()
}

// LatencyCycles returns the access latency.
func (d *DRAM) LatencyCycles() int { return d.p.LatencyCycles }

// AccessPJ returns the energy of one line transfer.
func (d *DRAM) AccessPJ() float64 { return d.p.AccessPJ() }

// LineBytes re-exports the transfer granularity for reports.
const LineBytes = mem.LineBytes
