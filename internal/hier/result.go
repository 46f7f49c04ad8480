package hier

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mmu"
)

// Counters are the system-wide run counters, each declared once: System
// accumulates them and Result captures them, and both embed this record,
// so resetting, capturing, cloning and viewing a run each zero or copy it
// whole.
type Counters struct {
	// NRHist buckets L3-evicted lines by reuse count: 0, 1, 2, >2 (Fig. 1).
	NRHist [4]uint64

	// Demand/metadata miss split for Figure 12.
	L2DemandMisses, L2MetaAccesses, L2MetaMisses uint64
	L3DemandMisses, L3MetaAccesses, L3MetaMisses uint64

	// EOUOps counts optimizer invocations (two per policy recomputation);
	// energy is derived as EOUOps x energy.EOUOpPJ.
	EOUOps uint64

	// SampledAccesses/SkippedAccesses split the driven accesses between
	// the simulated sample and the short-circuited remainder under set
	// sampling (both zero when sampling is off).
	SampledAccesses, SkippedAccesses uint64
}

// CoreCounters are one core's run counters, embedded by the core and by
// its CoreResult. Cycles are derived, never accumulated: instruction time
// is Instrs x BaseCPI exactly, and the two integer stall counters hold the
// rest, so ScaledCycles can extrapolate the stalls of a set-sampled run
// without touching the exact instruction time.
type CoreCounters struct {
	Instrs uint64
	// DemandStalls is exposed memory latency (max(0, lat - OverlapCycles)
	// per simulated access); PolicyStalls counts the one-cycle TLB blocks
	// for EOU recomputations.
	DemandStalls, PolicyStalls uint64
}

// stalls returns the core's total stall cycles.
func (c *CoreCounters) stalls() uint64 { return c.DemandStalls + c.PolicyStalls }

// Result is a finished run's statistics, captured once by
// (*System).Result: exactly what the accessors in stats.go read, which is
// everything the figures, slipsim's report and slipd's results read. No
// field points into simulator state and nothing writes a Result after
// capture, so holding one retains a few kilobytes however large the
// simulated caches were.
type Result struct {
	// Config is the run's default-filled configuration.
	Config Config
	// Cores holds each core's statistics, in core order.
	Cores []CoreResult

	// L3 is the shared level's accounting and L3InsertClasses its SLIP
	// driver's insertion classes (zero for other policies).
	L3              cache.Stats
	L3InsertClasses [4]uint64
	DRAM            dram.Stats

	// NRResident buckets the lines still resident in the L3 at capture, as
	// NRHist buckets the evicted ones.
	NRResident [4]uint64

	Counters
}

// CoreResult is one core's share of a Result.
type CoreResult struct {
	CoreCounters
	L1, L2 cache.Stats
	// MMU is the core's TLB and sampling activity (zero without an MMU).
	MMU mmu.Stats
	// L2InsertClasses are the core's L2 SLIP driver's insertion classes
	// (zero for other policies).
	L2InsertClasses [4]uint64
}

// Result captures the run's statistics as they stand. Its one O(lines)
// step is the pass over the L3 that buckets the resident lines' reuse
// counts for Figure 1. A stats-only view returns the Result it was built
// from.
func (s *System) Result() *Result {
	if s.view != nil {
		return s.view
	}
	r := &Result{
		Config:   s.cfg,
		Cores:    make([]CoreResult, len(s.cores)),
		L3:       statsOf(s.l3),
		DRAM:     s.dram.Stats,
		Counters: s.Counters,
	}
	if d := s.SLIPDriverL3(); d != nil {
		r.L3InsertClasses = d.InsertClasses
	}
	for i, cn := range s.cores {
		c := &r.Cores[i]
		c.CoreCounters = cn.CoreCounters
		c.L1, c.L2 = statsOf(cn.l1), statsOf(cn.l2)
		if cn.mmu != nil {
			c.MMU = cn.mmu.Stats
		}
		if d := s.SLIPDriverL2(i); d != nil {
			c.L2InsertClasses = d.InsertClasses
		}
	}
	s.l3.ForEachLine(func(_, _ int, ln cache.Line) { r.NRResident[nrBucket(ln.Reuses)]++ })
	return r
}

// statsOf copies a level's statistics, sublevel hits included.
func statsOf(l *cache.Level) cache.Stats {
	st := l.Stats
	st.HitsPerSublevel = append([]uint64(nil), st.HitsPerSublevel...)
	return st
}

// CheckInvariants checks the identities a run's counters keep between
// levels and returns every violated one, joined: hits plus misses equal
// accesses at each level; the L2 and L3 misses split exactly into demand
// and metadata misses; the DRAM reads are the L3's demand misses and its
// metadata reads the L3's metadata misses; under set sampling the L1s saw
// exactly the sampled accesses; the NR histogram holds one entry per L3
// eviction; and every energy is finite, non-negative and the sum of its
// parts. Across the MMUs: each policy recompute ran two EOU ops and
// blocked its core's TLB for one stall cycle, and each profile fetch made
// one L2 metadata access, except under set sampling, where only the
// sampled groups' profile lines go through the hierarchy. Identities that
// need the driven access count are CheckWindow's.
func (r *Result) CheckInvariants() error {
	var errs []error
	level := func(name string, st *cache.Stats) {
		if h, m, a := st.Hits.Value(), st.Misses.Value(), st.Accesses.Value(); h+m != a {
			errs = append(errs, fmt.Errorf("%s: hits %d + misses %d != accesses %d", name, h, m, a))
		}
	}
	parts := func(st *cache.Stats) float64 { return st.AccessPJ.PJ() + st.MovementPJ.PJ() + st.MetadataPJ.PJ() }
	var l1Acc, l2Miss, recomputes, fetches uint64
	var l1Parts, l2Parts float64
	for i := range r.Cores {
		c := &r.Cores[i]
		level(fmt.Sprintf("core %d L1", i), &c.L1)
		level(fmt.Sprintf("core %d L2", i), &c.L2)
		l1Acc += c.L1.Accesses.Value()
		l2Miss += c.L2.Misses.Value()
		l1Parts += parts(&c.L1)
		l2Parts += parts(&c.L2)
		rc := c.MMU.PolicyRecomputs.Value()
		if c.PolicyStalls != rc {
			errs = append(errs, fmt.Errorf("core %d: policy stalls %d != policy recomputes %d", i, c.PolicyStalls, rc))
		}
		recomputes += rc
		fetches += c.MMU.ProfileFetches.Value()
	}
	level("L3", &r.L3)
	if l2Miss != r.L2DemandMisses+r.L2MetaMisses {
		errs = append(errs, fmt.Errorf("L2 misses %d != demand %d + metadata %d",
			l2Miss, r.L2DemandMisses, r.L2MetaMisses))
	}
	if m := r.L3.Misses.Value(); m != r.L3DemandMisses+r.L3MetaMisses {
		errs = append(errs, fmt.Errorf("L3 misses %d != demand %d + metadata %d",
			m, r.L3DemandMisses, r.L3MetaMisses))
	}
	if got := r.DRAM.Reads.Value(); got != r.L3DemandMisses {
		errs = append(errs, fmt.Errorf("DRAM reads %d != L3 demand misses %d", got, r.L3DemandMisses))
	}
	if got := r.DRAM.MetadataReads.Value(); got != r.L3MetaMisses {
		errs = append(errs, fmt.Errorf("DRAM metadata reads %d != L3 metadata misses %d", got, r.L3MetaMisses))
	}
	if r.SampleK() > 1 && l1Acc != r.SampledAccesses {
		errs = append(errs, fmt.Errorf("L1 accesses %d != sampled accesses %d", l1Acc, r.SampledAccesses))
	}
	if nr, ev := r.NRHist[0]+r.NRHist[1]+r.NRHist[2]+r.NRHist[3], r.L3.Evictions.Value(); nr != ev {
		errs = append(errs, fmt.Errorf("NR histogram holds %d lines, L3 evicted %d", nr, ev))
	}
	if r.EOUOps != 2*recomputes {
		errs = append(errs, fmt.Errorf("EOU ops %d != 2 x policy recomputes %d", r.EOUOps, recomputes))
	}
	if m := r.L2MetaAccesses; m > fetches || r.SampleK() == 1 && m != fetches {
		errs = append(errs, fmt.Errorf("L2 metadata accesses %d != profile fetches %d (at most them under set sampling)", m, fetches))
	}

	core, l1, l2, l3, dramPJ, eou := r.CorePJ(), r.L1TotalPJ(), r.L2TotalPJ(), r.L3TotalPJ(), r.DRAMPJ(), r.EOUPJ()
	full := r.FullSystemPJ()
	for _, e := range []struct {
		name string
		pj   float64
	}{{"core", core}, {"L1", l1}, {"L2", l2}, {"L3", l3}, {"DRAM", dramPJ}, {"EOU", eou}, {"full-system", full}} {
		if math.IsNaN(e.pj) || math.IsInf(e.pj, 0) || e.pj < 0 {
			errs = append(errs, fmt.Errorf("%s energy %v is not finite and non-negative", e.name, e.pj))
		}
	}
	for _, e := range []struct {
		name        string
		total, want float64
	}{
		{"L1", l1, l1Parts},
		{"L2", l2, l2Parts + eou/2},
		{"L3", l3, parts(&r.L3) + eou/2},
		{"full-system", full, core + l1 + l2 + l3 + dramPJ},
	} {
		if !nearPJ(e.total, e.want) {
			errs = append(errs, fmt.Errorf("%s energy %v != its parts %v", e.name, e.total, e.want))
		}
	}
	return errors.Join(errs...)
}

// CheckWindow is CheckInvariants plus the identities that need the driven
// count, which only the caller knows: window is the measured accesses each
// core drove, so the L1s saw cores × window accesses or, under set
// sampling, sampled plus skipped accesses make cores × window; and under a
// SLIP policy the TLBs translated all cores × window accesses, the ones set
// sampling skips included.
func (r *Result) CheckWindow(window uint64) error {
	errs := []error{r.CheckInvariants()}
	driven := uint64(len(r.Cores)) * window
	if r.Config.Policy.IsSLIP() {
		var lookups uint64
		for i := range r.Cores {
			m := &r.Cores[i].MMU
			lookups += m.TLBHits.Value() + m.TLBMisses.Value()
		}
		if lookups != driven {
			errs = append(errs, fmt.Errorf("TLB lookups %d != driven accesses %d", lookups, driven))
		}
	}
	if r.SampleK() > 1 {
		if got := r.SampledAccesses + r.SkippedAccesses; got != driven {
			errs = append(errs, fmt.Errorf("sampled %d + skipped %d != driven accesses %d",
				r.SampledAccesses, r.SkippedAccesses, driven))
		}
	} else {
		var l1Acc uint64
		for i := range r.Cores {
			l1Acc += r.Cores[i].L1.Accesses.Value()
		}
		if l1Acc != driven {
			errs = append(errs, fmt.Errorf("L1 accesses %d != driven accesses %d", l1Acc, driven))
		}
	}
	return errors.Join(errs...)
}

// nearPJ reports whether two energies agree to a relative 1e-9: each is a
// sum of fixed-point buckets converted to float, so a sum regrouped from
// the same buckets may differ from the accessor's in the last bits.
func nearPJ(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
