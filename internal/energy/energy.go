// Package energy models the access energy of large banked SRAM caches whose
// cost is dominated by wire energy, in the style of CACTI. It rebuilds the
// paper's Table 2 numbers from first principles — a grid of SRAM banks joined
// by a hierarchical bus, with a per-millimetre wire energy — and exposes the
// calibrated presets that the simulator charges per event.
//
// Two views are provided:
//
//   - BankGrid: the parametric geometry model. Given a bank array, an
//     interleaving scheme and a technology node it derives per-row (and thus
//     per-way and per-sublevel) access energies. This is what substitutes
//     for the paper's HSPICE + PTM methodology.
//   - LevelParams: the calibrated per-level constants (Table 2 plus the
//     latencies of Table 1) consumed by the cache simulator, so the energy
//     accounting in experiments matches the paper exactly.
package energy

import (
	"fmt"

	"repro/internal/mem"
)

// Topology enumerates the interconnect schemes of Figure 4.
type Topology int

const (
	// HierBusWayInterleaved is Figure 4a: a hierarchical bus with ways
	// interleaved across bank rows, so different ways have different wire
	// energy. This is the baseline topology SLIP exploits.
	HierBusWayInterleaved Topology = iota
	// HierBusSetInterleaved is Figure 4b: all ways of a set live in the same
	// bank, so every location of a line costs the same energy.
	HierBusSetInterleaved
	// HTree is Figure 4c: every access traverses the full tree depth, so all
	// banks cost the same (worst-case) energy.
	HTree
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case HierBusWayInterleaved:
		return "hier-bus/way-interleaved"
	case HierBusSetInterleaved:
		return "hier-bus/set-interleaved"
	case HTree:
		return "h-tree"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// TechNode carries the technology-dependent constants. The 45nm node matches
// Table 2; the 22nm node follows the paper's scaling study (wire energy per
// mm shrinks much more slowly than bank-internal energy, so the relative
// asymmetry between near and far ways grows).
type TechNode struct {
	Name string
	// WirePJPerBitMM is the signalling energy per bit per millimetre.
	WirePJPerBitMM float64
	// BankScale multiplies bank-internal access energy relative to 45nm.
	BankScale float64
	// DistScale multiplies physical distances relative to 45nm.
	DistScale float64
	// DRAMPJPerBit is the DRAM access energy per bit.
	DRAMPJPerBit float64
}

// Tech45 is the 45nm node of Table 2.
func Tech45() TechNode {
	return TechNode{
		Name:           "45nm",
		WirePJPerBitMM: 0.16,
		BankScale:      1.0,
		DistScale:      1.0,
		DRAMPJPerBit:   20,
	}
}

// Tech22 is the scaled 22nm node used in the paper's technology study.
// Wire capacitance per mm barely improves across nodes while transistor
// energy drops sharply, so the wire term keeps ~80% of its per-mm energy
// while the bank-internal term falls to 35% and linear dimensions to 55%.
func Tech22() TechNode {
	return TechNode{
		Name:           "22nm",
		WirePJPerBitMM: 0.13,
		BankScale:      0.35,
		DistScale:      0.55,
		DRAMPJPerBit:   12,
	}
}

// BankGrid is the parametric geometry of one cache level: Rows x Cols SRAM
// banks hanging off a vertical hierarchical bus. Ways are interleaved across
// rows (Figure 4a): row r holds ways [r*WaysPerRow, (r+1)*WaysPerRow).
type BankGrid struct {
	Name string
	// Rows and Cols give the bank array shape.
	Rows, Cols int
	// WaysPerRow is the number of cache ways mapped to each bank row.
	WaysPerRow int
	// BankPJ is the internal (non-wire) access energy of one bank at 45nm.
	BankPJ float64
	// BaseDistMM is the wire distance from the cache controller to row 0.
	BaseDistMM float64
	// RowPitchMM is the additional wire distance per bank row, including the
	// average horizontal traversal within the row.
	RowPitchMM float64
	// BitsPerAccess is the number of bits moved per line access.
	BitsPerAccess int
	// Tech is the technology node.
	Tech TechNode
}

// NumWays returns the total way count of the level.
func (g *BankGrid) NumWays() int { return g.Rows * g.WaysPerRow }

// rowDistMM returns the effective wire distance to row r.
func (g *BankGrid) rowDistMM(r int) float64 {
	return (g.BaseDistMM + float64(r)*g.RowPitchMM) * g.Tech.DistScale
}

// wirePJ returns the wire energy for one access over distance d mm.
func (g *BankGrid) wirePJ(d float64) float64 {
	return float64(g.BitsPerAccess) * g.Tech.WirePJPerBitMM * d
}

// RowEnergyPJ returns the access energy of a line resident in row r under
// the way-interleaved hierarchical bus.
func (g *BankGrid) RowEnergyPJ(r int) float64 {
	if r < 0 || r >= g.Rows {
		panic(fmt.Sprintf("energy: row %d out of range [0,%d)", r, g.Rows))
	}
	return g.BankPJ*g.Tech.BankScale + g.wirePJ(g.rowDistMM(r))
}

// WayEnergyPJ returns the access energy of way w (way-interleaved).
func (g *BankGrid) WayEnergyPJ(w int) float64 {
	if w < 0 || w >= g.NumWays() {
		panic(fmt.Sprintf("energy: way %d out of range [0,%d)", w, g.NumWays()))
	}
	return g.RowEnergyPJ(w / g.WaysPerRow)
}

// UniformEnergyPJ returns the per-access energy under a topology where all
// locations cost the same:
//
//   - set-interleaved bus: a line's set pins it to one bank, and averaged
//     over sets the cost equals the mean row energy;
//   - H-tree: every access pays the full tree traversal, i.e. slightly more
//     than the farthest row.
func (g *BankGrid) UniformEnergyPJ(t Topology) float64 {
	switch t {
	case HierBusSetInterleaved:
		sum := 0.0
		for r := 0; r < g.Rows; r++ {
			sum += g.RowEnergyPJ(r)
		}
		return sum / float64(g.Rows)
	case HTree:
		// Every access traverses the same root-to-leaf path. In a balanced
		// H-tree that path covers successive halvings of the array span
		// (1/2 + 1/4 + ...), about 65% of the full span for the shallow
		// trees that cover a 4-row array, regardless of which bank responds.
		d := g.BaseDistMM + 0.65*float64(g.Rows)*g.RowPitchMM
		return g.BankPJ*g.Tech.BankScale + g.wirePJ(d*g.Tech.DistScale)
	default:
		panic("energy: UniformEnergyPJ called with non-uniform topology " + t.String())
	}
}

// MeanWayEnergyPJ returns the way-energy averaged over all ways — the cost
// of an access whose resident way is uniformly distributed, which is how the
// paper derives the "baseline access" energy of Table 2.
func (g *BankGrid) MeanWayEnergyPJ() float64 {
	sum := 0.0
	for w := 0; w < g.NumWays(); w++ {
		sum += g.WayEnergyPJ(w)
	}
	return sum / float64(g.NumWays())
}

// SublevelEnergyPJ averages way energies over each sublevel given the number
// of ways per sublevel.
func (g *BankGrid) SublevelEnergyPJ(waysPerSublevel []int) []float64 {
	out := make([]float64, len(waysPerSublevel))
	w := 0
	for i, n := range waysPerSublevel {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += g.WayEnergyPJ(w)
			w++
		}
		out[i] = sum / float64(n)
	}
	if w != g.NumWays() {
		panic("energy: sublevel way counts do not cover the grid")
	}
	return out
}

// L2Grid45 returns the calibrated L2 geometry: a 2 (wide) x 4 (high) array
// of 32KB banks, two complete ways per bank (Section 5), calibrated so the
// sublevel energies reproduce Table 2 (21/33/50 pJ) at 45nm.
func L2Grid45() *BankGrid {
	return &BankGrid{
		Name:          "L2-256KB",
		Rows:          4,
		Cols:          2,
		WaysPerRow:    4,
		BankPJ:        16.0,
		BaseDistMM:    0.061,
		RowPitchMM:    0.142,
		BitsPerAccess: 8 * mem.LineBytes,
		Tech:          Tech45(),
	}
}

// L3Grid45 returns the calibrated L3 geometry: a 16 x 4 array of 32KB banks
// with four ways per row, calibrated to Table 2 (67/113/176 pJ). The row
// pitch is large because each row is sixteen banks wide and the bus must
// also traverse half the row on average.
func L3Grid45() *BankGrid {
	return &BankGrid{
		Name:          "L3-2MB",
		Rows:          4,
		Cols:          16,
		WaysPerRow:    4,
		BankPJ:        16.0,
		BaseDistMM:    0.623,
		RowPitchMM:    0.545,
		BitsPerAccess: 8 * mem.LineBytes,
		Tech:          Tech45(),
	}
}

// WithTech returns a copy of the grid retargeted to another node.
func (g *BankGrid) WithTech(t TechNode) *BankGrid {
	c := *g
	c.Tech = t
	c.Name = g.Name + "@" + t.Name
	return &c
}

// LevelParams is the calibrated set of constants the simulator charges per
// event at one cache level. Energies are picojoules, latencies cycles.
type LevelParams struct {
	Name string
	// BaselineAccessPJ is the mean access energy of a conventional cache at
	// this level (39 pJ for L2, 136 pJ for L3 in Table 2).
	BaselineAccessPJ float64
	// WayAccessPJ[w] is the read or write energy for a line in way w under
	// the way-interleaved topology. Within a sublevel all ways share the
	// sublevel average, matching the paper's accounting.
	WayAccessPJ []float64
	// WayLatency[w] is the access latency in cycles for way w.
	WayLatency []int
	// BaselineLatency is the uniform latency of the conventional cache.
	BaselineLatency int
	// MetadataPJ is the energy to read or write the 12b per-line metadata.
	MetadataPJ float64
	// SublevelWays[i] is the number of ways in sublevel i (near to far).
	SublevelWays []int
	// SublevelPJ[i] is the average access energy of sublevel i.
	SublevelPJ []float64
	// SublevelLatency[i] is the access latency of sublevel i.
	SublevelLatency []int

	// waySub caches the way -> sublevel mapping; Validate fills it, and
	// WaySublevel falls back to a scan for hand-built params that never
	// validated.
	waySub []int
}

// Validate checks internal consistency; every constructor in this package
// produces valid params, so a failure indicates a hand-built config bug.
func (p *LevelParams) Validate() error {
	ways := 0
	for _, n := range p.SublevelWays {
		ways += n
	}
	if ways != len(p.WayAccessPJ) || ways != len(p.WayLatency) {
		return fmt.Errorf("energy: %s: sublevel ways %d != way arrays %d/%d",
			p.Name, ways, len(p.WayAccessPJ), len(p.WayLatency))
	}
	if len(p.SublevelPJ) != len(p.SublevelWays) || len(p.SublevelLatency) != len(p.SublevelWays) {
		return fmt.Errorf("energy: %s: sublevel array lengths differ", p.Name)
	}
	for i := 1; i < len(p.SublevelPJ); i++ {
		if p.SublevelPJ[i] < p.SublevelPJ[i-1] {
			return fmt.Errorf("energy: %s: sublevel energies must be non-decreasing", p.Name)
		}
	}
	// A validated geometry is fixed, so the way -> sublevel map can be
	// flattened once; WaySublevel sits on per-access policy paths.
	p.waySub = make([]int, 0, ways)
	for i, n := range p.SublevelWays {
		for k := 0; k < n; k++ {
			p.waySub = append(p.waySub, i)
		}
	}
	return nil
}

// NumWays returns the level's associativity.
func (p *LevelParams) NumWays() int { return len(p.WayAccessPJ) }

// WaySublevel returns the sublevel index that way w belongs to.
func (p *LevelParams) WaySublevel(w int) int {
	if p.waySub != nil {
		if w < len(p.waySub) {
			return p.waySub[w]
		}
		panic(fmt.Sprintf("energy: way %d beyond last sublevel of %s", w, p.Name))
	}
	for i, n := range p.SublevelWays {
		if w < n {
			return i
		}
		w -= n
	}
	panic(fmt.Sprintf("energy: way %d beyond last sublevel of %s", w, p.Name))
}

// fromSublevels builds per-way arrays by replicating sublevel values.
func fromSublevels(name string, ways []int, pj []float64, lat []int, basePJ float64, baseLat int, metaPJ float64) *LevelParams {
	p := &LevelParams{
		Name:             name,
		BaselineAccessPJ: basePJ,
		BaselineLatency:  baseLat,
		MetadataPJ:       metaPJ,
		SublevelWays:     ways,
		SublevelPJ:       pj,
		SublevelLatency:  lat,
	}
	for i, n := range ways {
		for k := 0; k < n; k++ {
			p.WayAccessPJ = append(p.WayAccessPJ, pj[i])
			p.WayLatency = append(p.WayLatency, lat[i])
		}
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// L2Params45 returns the Table 1/2 presets for the 256KB 16-way L2:
// sublevels of 4/4/8 ways at 21/33/50 pJ and 4/6/8 cycles, 39 pJ and 7
// cycles baseline, 1 pJ metadata access.
func L2Params45() *LevelParams {
	return fromSublevels("L2", []int{4, 4, 8},
		[]float64{21, 33, 50}, []int{4, 6, 8}, 39, 7, 1)
}

// L3Params45 returns the Table 1/2 presets for the 2MB 16-way L3:
// sublevels of 4/4/8 ways at 67/113/176 pJ and 15/19/23 cycles, 136 pJ and
// 20 cycles baseline, 2.5 pJ metadata access.
func L3Params45() *LevelParams {
	return fromSublevels("L3", []int{4, 4, 8},
		[]float64{67, 113, 176}, []int{15, 19, 23}, 136, 20, 2.5)
}

// ParamsFromGrid derives LevelParams from the geometry model, using the
// given sublevel way grouping and latencies. This is how the 22nm and
// H-tree configurations are produced.
func ParamsFromGrid(g *BankGrid, sublevelWays []int, sublevelLat []int, baseLat int, metaPJ float64) *LevelParams {
	pj := g.SublevelEnergyPJ(sublevelWays)
	return fromSublevels(g.Name, sublevelWays, pj, sublevelLat,
		g.MeanWayEnergyPJ(), baseLat, metaPJ)
}

// UniformParams derives LevelParams for a uniform-energy topology (H-tree or
// set-interleaved bus): every way costs the same and there is no incentive
// for SLIP to move anything.
func UniformParams(g *BankGrid, t Topology, sublevelWays []int, baseLat int, metaPJ float64) *LevelParams {
	e := g.UniformEnergyPJ(t)
	pj := make([]float64, len(sublevelWays))
	lat := make([]int, len(sublevelWays))
	for i := range pj {
		pj[i] = e
		lat[i] = baseLat
	}
	return fromSublevels(g.Name+"/"+t.String(), sublevelWays, pj, lat, e, baseLat, metaPJ)
}

// L1Params builds the uniform-energy L1 parameter set from the core model:
// a single "sublevel" covering all ways, so the generic level machinery
// serves as the L1 with no asymmetry to exploit.
func L1Params(c CoreParams) *LevelParams {
	return fromSublevels("L1", []int{c.L1Ways},
		[]float64{c.L1AccessPJ}, []int{c.L1LatencyCyc},
		c.L1AccessPJ, c.L1LatencyCyc, 0)
}

// Fixed per-event costs shared by both levels (Section 5).
const (
	// MovementQueueLookupPJ is the synthesized movement-queue lookup cost,
	// charged as metadata energy on every access and invalidation of a
	// level that charges metadata.
	MovementQueueLookupPJ = 0.3
	// EOUOpPJ is one full EOU optimization (all SLIPs + argmin).
	EOUOpPJ = 1.27
	// EOULatencyCycles is the EOU pipeline latency.
	EOULatencyCycles = 2
)

// DRAMParams carries the main-memory model constants.
type DRAMParams struct {
	LatencyCycles int
	PJPerBit      float64
}

// DRAM45 returns the Table 1/2 DRAM model: 100 cycles, 20 pJ/bit.
func DRAM45() DRAMParams { return DRAMParams{LatencyCycles: 100, PJPerBit: 20} }

// AccessPJ returns the energy of moving one full cache line to/from DRAM.
func (d DRAMParams) AccessPJ() float64 { return d.PJPerBit * 8 * mem.LineBytes }

// CoreParams carries the constants for the non-cache part of full-system
// energy (Figure 10): a McPAT-style flat energy per instruction and per L1
// access. These only set the denominator of full-system savings.
type CoreParams struct {
	PJPerInstr    float64
	L1AccessPJ    float64
	L1LatencyCyc  int
	L1Bytes       uint64
	L1Ways        int
	BaseCPI       float64
	ClockGHz      float64
	OverlapCycles int // memory latency hidden by the OoO window per miss
}

// DefaultCore returns the 4-wide OoO core of Table 1 with calibrated energy
// constants: 120 pJ/instruction core energy and 12 pJ per L1 access, placing
// L2+L3 at roughly 5% of full-system dynamic energy as in McPAT-based
// studies of LLC energy share.
func DefaultCore() CoreParams {
	return CoreParams{
		PJPerInstr:    120,
		L1AccessPJ:    12,
		L1LatencyCyc:  4,
		L1Bytes:       32 * mem.KB,
		L1Ways:        8,
		BaseCPI:       0.5,
		ClockGHz:      2.4,
		OverlapCycles: 60,
	}
}
