package core

import "fmt"

// LevelGeom is the hardware view the EOU needs of one cache level: the
// sublevel partition, per-sublevel capacities and access energies, and the
// cost of going to the next level on a miss. All energies are picojoules.
type LevelGeom struct {
	// SublevelWays[i] is the associativity of sublevel i (near to far).
	SublevelWays []int
	// SublevelLines[i] is the capacity of sublevel i in cache lines.
	SublevelLines []uint64
	// SublevelPJ[i] is the average access energy of sublevel i.
	SublevelPJ []float64
	// NextLevelPJ is the average energy of servicing a miss from the next
	// level (E_NL in Section 3.2): the mean way access energy of the next
	// cache, or the DRAM line-transfer energy for the last level.
	NextLevelPJ float64
}

// Validate checks the geometry is usable by the EOU.
func (g *LevelGeom) Validate() error {
	n := len(g.SublevelWays)
	if n == 0 || n != len(g.SublevelLines) || n != len(g.SublevelPJ) {
		return fmt.Errorf("core: geometry arrays must be non-empty and equal length")
	}
	if n != NumBins-1 {
		return fmt.Errorf("core: %d sublevels but distributions carry %d capacity bins", n, NumBins-1)
	}
	for i := 0; i < n; i++ {
		if g.SublevelWays[i] < 1 || g.SublevelLines[i] == 0 || g.SublevelPJ[i] <= 0 {
			return fmt.Errorf("core: sublevel %d has non-positive parameters", i)
		}
		if i > 0 && g.SublevelPJ[i] < g.SublevelPJ[i-1] {
			return fmt.Errorf("core: sublevel energies must be non-decreasing")
		}
	}
	if g.NextLevelPJ <= 0 {
		return fmt.Errorf("core: next-level energy must be positive")
	}
	return nil
}

// NumSublevels returns the sublevel count S.
func (g *LevelGeom) NumSublevels() int { return len(g.SublevelWays) }

// CumLines returns the cumulative sublevel capacities in lines — the bin
// boundaries of the reuse-distance distributions.
func (g *LevelGeom) CumLines() []uint64 {
	out := make([]uint64, len(g.SublevelLines))
	var run uint64
	for i, l := range g.SublevelLines {
		run += l
		out[i] = run
	}
	return out
}

// ChunkEnergyPJ returns the way-weighted average access energy of a chunk
// spanning sublevels [first, last] (the paper's Ē_i).
func (g *LevelGeom) ChunkEnergyPJ(first, last int) float64 {
	ways, sum := 0, 0.0
	for s := first; s <= last; s++ {
		ways += g.SublevelWays[s]
		sum += float64(g.SublevelWays[s]) * g.SublevelPJ[s]
	}
	return sum / float64(ways)
}

// EOU is the Energy Optimizer Unit of Section 4.4: an array of Energy
// Evaluation Units, one per SLIP, each holding a precomputed coefficient
// vector alpha so that the expected energy of applying that SLIP to a line
// is the dot product alpha . p over the line's reuse-distance probabilities
// (Equation 5). Optimize evaluates all EEUs and returns the argmin, exactly
// the hardware of Figure 8. An EOU never changes after NewEOU, so any
// number of systems (and snapshot clones) may share one.
type EOU struct {
	slips []SLIP
	// coef[j][k] is alpha_kj: the energy coefficient of bin k under SLIP j.
	coef [][NumBins]float64
	geom LevelGeom
}

// NewEOU builds the EEU array for every SLIP of the level; allowBypass
// controls whether the All-Bypass Policy participates (SLIP vs SLIP+ABP in
// the evaluation; ABP is also undesirable under inclusive hierarchies,
// Section 4.3).
func NewEOU(g LevelGeom, allowBypass bool) (*EOU, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	e := &EOU{geom: g}
	for _, s := range Enumerate(g.NumSublevels()) {
		if s.IsBypass() && !allowBypass {
			continue
		}
		e.slips = append(e.slips, s)
		e.coef = append(e.coef, coefficients(&g, s))
	}
	return e, nil
}

// coefficients derives the alpha vector of Equations 1-5 for one SLIP,
// folding in the re-insertion write that every miss eventually causes (the
// paper's results count insertion energy as movement energy; without it the
// All-Bypass Policy could never win).
func coefficients(g *LevelGeom, s SLIP) [NumBins]float64 {
	var a [NumBins]float64
	if s.IsBypass() {
		for k := range a {
			a[k] = g.NextLevelPJ
		}
		return a
	}
	M := s.NumChunks()
	chunkPJ := make([]float64, M)
	for i := 0; i < M; i++ {
		first, last := s.ChunkBounds(i)
		chunkPJ[i] = g.ChunkEnergyPJ(first, last)
	}
	// Access energy: bin k is served by the chunk whose cumulative capacity
	// first covers sublevel k (Equation 2-3).
	for i := 0; i < M; i++ {
		first, last := s.ChunkBounds(i)
		lo := 0
		if i > 0 {
			lo = first
		}
		for k := lo; k <= last; k++ {
			a[k] += chunkPJ[i]
		}
	}
	lastSub := s.Sublevels() - 1
	// Movement energy: a reuse distance beyond chunk i's cumulative
	// capacity implies the line was evicted from chunk i and written into
	// chunk i+1, costing a read + a write (Equation 3's movement term).
	for i := 0; i < M-1; i++ {
		_, end := s.ChunkBounds(i)
		for k := end + 1; k < NumBins; k++ {
			a[k] += chunkPJ[i] + chunkPJ[i+1]
		}
	}
	// Miss energy plus the eventual re-insertion into chunk 0 (Equation 4).
	for k := lastSub + 1; k < NumBins; k++ {
		a[k] += g.NextLevelPJ + chunkPJ[0]
	}
	return a
}

// NumSLIPs returns the number of candidate policies the unit evaluates.
func (e *EOU) NumSLIPs() int { return len(e.slips) }

// SLIPs returns the candidate policies in evaluation order.
func (e *EOU) SLIPs() []SLIP { return e.slips }

// Coefficients exposes the alpha vector of candidate j (for tests and for
// the RTL-style view of Figure 8).
func (e *EOU) Coefficients(j int) [NumBins]float64 { return e.coef[j] }

// Energy evaluates one EEU: the expected access+movement+miss energy per
// reference of applying candidate j to a line with distribution d.
func (e *EOU) Energy(j int, d *Dist) float64 {
	p := d.Probabilities()
	sum := 0.0
	for k := 0; k < NumBins; k++ {
		sum += e.coef[j][k] * p[k]
	}
	return sum
}

// Optimize returns the minimum-energy SLIP for distribution d along with
// its expected per-reference energy. Ties break toward the earlier
// candidate in the canonical enumeration (deterministic hardware priority).
func (e *EOU) Optimize(d *Dist) (SLIP, float64) {
	best, bestE := 0, e.Energy(0, d)
	for j := 1; j < len(e.slips); j++ {
		if v := e.Energy(j, d); v < bestE {
			best, bestE = j, v
		}
	}
	return e.slips[best], bestE
}

// Geometry returns the level geometry the unit was built for.
func (e *EOU) Geometry() LevelGeom { return e.geom }
