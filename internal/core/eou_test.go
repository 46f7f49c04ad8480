package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

// l2Geom is the paper's L2 as seen by the EOU: sublevels 64K/64K/128K at
// 21/33/50 pJ, misses served by the L3 at 136 pJ.
func l2Geom() LevelGeom {
	return LevelGeom{
		SublevelWays:  []int{4, 4, 8},
		SublevelLines: []uint64{1024, 1024, 2048},
		SublevelPJ:    []float64{21, 33, 50},
		NextLevelPJ:   136,
	}
}

// l3Geom is the paper's L3: misses cost a DRAM line transfer (10240 pJ).
func l3Geom() LevelGeom {
	return LevelGeom{
		SublevelWays:  []int{4, 4, 8},
		SublevelLines: []uint64{8192, 8192, 16384},
		SublevelPJ:    []float64{67, 113, 176},
		NextLevelPJ:   10240,
	}
}

func TestGeomValidate(t *testing.T) {
	g := l2Geom()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := l2Geom()
	bad.SublevelPJ = []float64{50, 33, 21}
	if bad.Validate() == nil {
		t.Error("decreasing energies accepted")
	}
	bad = l2Geom()
	bad.SublevelWays = []int{4, 4}
	if bad.Validate() == nil {
		t.Error("mismatched lengths accepted")
	}
	bad = l2Geom()
	bad.NextLevelPJ = 0
	if bad.Validate() == nil {
		t.Error("zero next-level energy accepted")
	}
}

func TestGeomCumLines(t *testing.T) {
	g := l2Geom()
	cum := g.CumLines()
	want := []uint64{1024, 2048, 4096}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("CumLines[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
}

func TestChunkEnergyIsWayWeighted(t *testing.T) {
	g := l2Geom()
	// Chunk of sublevels 1..2: (4*33 + 8*50) / 12.
	want := (4.0*33 + 8.0*50) / 12
	if got := g.ChunkEnergyPJ(1, 2); math.Abs(got-want) > 1e-9 {
		t.Errorf("ChunkEnergyPJ(1,2) = %v, want %v", got, want)
	}
	// Whole-cache chunk equals the 39 pJ baseline of Table 2 (rounded).
	if got := g.ChunkEnergyPJ(0, 2); math.Abs(got-38.5) > 1e-9 {
		t.Errorf("ChunkEnergyPJ(0,2) = %v, want 38.5", got)
	}
}

func TestEOUCandidateCounts(t *testing.T) {
	withABP, err := NewEOU(l2Geom(), true)
	if err != nil {
		t.Fatal(err)
	}
	if withABP.NumSLIPs() != 8 {
		t.Errorf("with ABP: %d candidates, want 8", withABP.NumSLIPs())
	}
	without, err := NewEOU(l2Geom(), false)
	if err != nil {
		t.Fatal(err)
	}
	if without.NumSLIPs() != 7 {
		t.Errorf("without ABP: %d candidates, want 7", without.NumSLIPs())
	}
	for _, s := range without.SLIPs() {
		if s.IsBypass() {
			t.Error("ABP present despite allowBypass=false")
		}
	}
}

func TestEOURejectsBadGeom(t *testing.T) {
	g := l2Geom()
	g.SublevelPJ = nil
	if _, err := NewEOU(g, true); err == nil {
		t.Error("bad geometry accepted")
	}
}

// refEnergy is an independent, direct transcription of Equations 1-4 plus
// the re-insertion convention, used to cross-check the coefficient
// construction.
func refEnergy(g LevelGeom, s SLIP, p [NumBins]float64) float64 {
	if s.IsBypass() {
		return g.NextLevelPJ
	}
	cum := append([]uint64{0}, g.CumLines()...)
	_ = cum
	probAtLeast := func(bin int) float64 { // P(d >= boundary before bin)
		sum := 0.0
		for k := bin; k < NumBins; k++ {
			sum += p[k]
		}
		return sum
	}
	e := 0.0
	M := s.NumChunks()
	for i := 0; i < M; i++ {
		first, last := s.ChunkBounds(i)
		// Access term: probability the reuse distance lands inside chunk i's
		// exclusive capacity window.
		f := 0.0
		for k := first; k <= last; k++ {
			f += p[k]
		}
		e += g.ChunkEnergyPJ(first, last) * f
		// Movement term into the next chunk.
		if i < M-1 {
			nf, nl := s.ChunkBounds(i + 1)
			e += (g.ChunkEnergyPJ(first, last) + g.ChunkEnergyPJ(nf, nl)) * probAtLeast(last+1)
		}
	}
	// Miss + re-insertion.
	lastSub := s.Sublevels() - 1
	f0, l0 := s.ChunkBounds(0)
	e += (g.NextLevelPJ + g.ChunkEnergyPJ(f0, l0)) * probAtLeast(lastSub+1)
	return e
}

func TestEOUMatchesReferenceModel(t *testing.T) {
	for _, g := range []LevelGeom{l2Geom(), l3Geom()} {
		e, err := NewEOU(g, true)
		if err != nil {
			t.Fatal(err)
		}
		f := func(a, b, c, d uint8) bool {
			dist := Dist{Bins: [NumBins]uint8{a % 16, b % 16, c % 16, d % 16}}
			p := dist.Probabilities()
			for j, s := range e.SLIPs() {
				want := refEnergy(g, s, p)
				got := e.Energy(j, &dist)
				if math.Abs(got-want) > 1e-9*(1+want) {
					t.Logf("SLIP %v: got %v, want %v", s, got, want)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Error(err)
		}
	}
}

func TestOptimizeIsArgmin(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	f := func(a, b, c, d uint8) bool {
		dist := Dist{Bins: [NumBins]uint8{a % 16, b % 16, c % 16, d % 16}}
		best, bestE := e.Optimize(&dist)
		for j := range e.SLIPs() {
			if e.Energy(j, &dist) < bestE-1e-12 {
				t.Logf("SLIP %v beaten by %v", best, e.SLIPs()[j])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOptimizeNearResidentPicksNearestChunk(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	d := Dist{Bins: [NumBins]uint8{15, 0, 0, 0}} // all reuses fit sublevel 0
	s, pj := e.Optimize(&d)
	if !s.Equal(NewSLIP(1)) {
		t.Errorf("near-resident line got %v, want {[0]}", s)
	}
	if math.Abs(pj-21) > 1e-9 {
		t.Errorf("energy = %v, want 21", pj)
	}
}

func TestOptimizeAllMissPicksBypass(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	d := Dist{Bins: [NumBins]uint8{0, 0, 0, 15}}
	s, pj := e.Optimize(&d)
	if !s.IsBypass() {
		t.Errorf("all-miss line got %v, want ABP", s)
	}
	if math.Abs(pj-136) > 1e-9 {
		t.Errorf("energy = %v, want E_NL = 136", pj)
	}
}

func TestOptimizeAllMissWithoutABP(t *testing.T) {
	e, _ := NewEOU(l2Geom(), false)
	d := Dist{Bins: [NumBins]uint8{0, 0, 0, 15}}
	s, _ := e.Optimize(&d)
	// Without bypass, the cheapest place to park always-missing lines is
	// the single nearest sublevel (smallest insertion energy).
	if !s.Equal(NewSLIP(1)) {
		t.Errorf("all-miss without ABP got %v, want {[0]}", s)
	}
}

func TestOptimizeWholeCacheReuseUsesDefault(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	// Reuses that only fit the full 256KB capacity: one whole-cache chunk
	// (Default) serves them with no movement; splitting would move lines.
	d := Dist{Bins: [NumBins]uint8{0, 0, 15, 0}}
	s, pj := e.Optimize(&d)
	if !s.IsDefault(3) {
		t.Errorf("full-capacity reuse got %v, want Default", s)
	}
	if math.Abs(pj-38.5) > 1e-9 {
		t.Errorf("energy = %v, want 38.5", pj)
	}
}

func TestOptimizeMidReusePicksTwoSublevelChunk(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	d := Dist{Bins: [NumBins]uint8{0, 15, 0, 0}} // fits 128KB
	s, pj := e.Optimize(&d)
	if !s.Equal(NewSLIP(2)) {
		t.Errorf("mid reuse got %v, want {[0,1]}", s)
	}
	if math.Abs(pj-27) > 1e-9 {
		t.Errorf("energy = %v, want 27", pj)
	}
}

// TestL3BypassNeedsNearTotalMisses: with a 10240 pJ DRAM penalty the EOU
// only bypasses the L3 when the hit probability is tiny — the paper's
// explanation for why fewer insertions are bypassed at L3 than at L2.
func TestL3BypassNeedsNearTotalMisses(t *testing.T) {
	e, _ := NewEOU(l3Geom(), true)
	d := Dist{Bins: [NumBins]uint8{1, 0, 0, 15}} // ~6% near hits
	s, _ := e.Optimize(&d)
	if s.IsBypass() {
		t.Errorf("6%% hits at L3 should not bypass (DRAM too expensive), got %v", s)
	}
	allMiss := Dist{Bins: [NumBins]uint8{0, 0, 0, 15}}
	s, _ = e.Optimize(&allMiss)
	if !s.IsBypass() {
		t.Errorf("pure-miss L3 line should bypass, got %v", s)
	}
}

func TestEmptyDistributionDefaultsConservatively(t *testing.T) {
	// An unobserved page has an empty distribution, which normalizes to
	// all-miss; with bypass disabled the EOU must still return something
	// sane rather than NaN.
	e, _ := NewEOU(l2Geom(), false)
	var d Dist
	s, pj := e.Optimize(&d)
	if s.NumChunks() == 0 || math.IsNaN(pj) {
		t.Errorf("empty distribution: %v %v", s, pj)
	}
}

func TestCoefficientsNonNegativeAndMonotoneInMiss(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	for j, s := range e.SLIPs() {
		c := e.Coefficients(j)
		for k, v := range c {
			if v < 0 {
				t.Errorf("SLIP %v coefficient[%d] = %v < 0", s, k, v)
			}
		}
		// The miss bin can never be cheaper than a bin served by a hit.
		if !s.IsBypass() && c[MissBin] < c[0] {
			t.Errorf("SLIP %v: miss bin cheaper than near bin", s)
		}
	}
}

// TestOpsCounter: the EOU keeps no operation counter (hier.System counts
// EOUOps), so Optimize leaves it unchanged and snapshot clones can share
// one.
func TestOpsCounter(t *testing.T) {
	e, _ := NewEOU(l2Geom(), true)
	before := *e
	var d Dist
	e.Optimize(&d)
	if !reflect.DeepEqual(*e, before) {
		t.Error("Optimize changed the EOU")
	}
	if e.Geometry().NextLevelPJ != 136 {
		t.Error("Geometry accessor broken")
	}
}
