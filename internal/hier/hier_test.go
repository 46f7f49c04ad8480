package hier

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/policy"
	"repro/internal/trace"
)

// streamSource returns a pure long stream (every LLC line sees 0 reuses).
func streamSource(seed uint64) trace.Source {
	return trace.NewMix(seed, 2,
		trace.MixItem{Region: trace.NewStream(1<<32, 64*mem.MB, 1, 0.2), Weight: 1, Burst: 16})
}

// loopSource returns a loop that fits comfortably in the L2.
func loopSource(seed uint64, bytes uint64) trace.Source {
	return trace.NewMix(seed, 2,
		trace.MixItem{Region: trace.NewLoop(1<<33, bytes, 0.2), Weight: 1, Burst: 16})
}

// mixedSource is the SLIP-friendly blend: a near-fitting loop, a wrapping
// stream and a miss-heavy random region. Footprints are sized so pages see
// enough TLB misses within a sub-million-access test to classify.
func mixedSource(seed uint64) trace.Source {
	return trace.NewMix(seed, 2,
		trace.MixItem{Region: trace.NewLoop(1<<33, 48*mem.KB, 0.2), Weight: 0.4, Burst: 512},
		trace.MixItem{Region: trace.NewStream(1<<34, 4*mem.MB, 1, 0.1), Weight: 0.3, Burst: 16},
		trace.MixItem{Region: trace.NewRandom(1<<35, 4*mem.MB, 0.1), Weight: 0.3, Burst: 4},
	)
}

func run(t *testing.T, cfg Config, src trace.Source, n uint64) *System {
	t.Helper()
	s := New(cfg)
	s.Run(trace.Limit(src, n))
	return s
}

func TestBaselineStreamMissesEverywhere(t *testing.T) {
	s := run(t, Config{Policy: Baseline}, streamSource(1), 200_000)
	l2 := s.L2(0)
	if l2.Stats.Hits.Value() > l2.Stats.Misses.Value()/10 {
		t.Errorf("stream should mostly miss L2: hits=%d misses=%d",
			l2.Stats.Hits.Value(), l2.Stats.Misses.Value())
	}
	if s.DRAM().Stats.Reads.Value() == 0 {
		t.Error("no DRAM reads for a streaming workload")
	}
	if s.Result().L2TotalPJ() <= 0 || s.Result().L3TotalPJ() <= 0 || s.Result().FullSystemPJ() <= 0 {
		t.Error("energies must be positive")
	}
}

func TestBaselineLoopHitsInL2(t *testing.T) {
	s := run(t, Config{Policy: Baseline}, loopSource(1, 128*mem.KB), 400_000)
	l2 := s.L2(0)
	hitRate := float64(l2.Stats.Hits.Value()) / float64(l2.Stats.Accesses.Value())
	if hitRate < 0.9 {
		t.Errorf("128KB loop L2 hit rate = %.2f, want > 0.9", hitRate)
	}
	// Steady state: DRAM reads bounded by the loop footprint.
	if s.DRAM().Stats.Reads.Value() > 3000 {
		t.Errorf("DRAM reads = %d for a resident loop", s.DRAM().Stats.Reads.Value())
	}
}

func TestRunIsDeterministic(t *testing.T) {
	a := run(t, Config{Policy: SLIPABP, Seed: 7}, mixedSource(3), 150_000)
	b := run(t, Config{Policy: SLIPABP, Seed: 7}, mixedSource(3), 150_000)
	if a.Result().FullSystemPJ() != b.Result().FullSystemPJ() || a.Result().DRAMTraffic() != b.Result().DRAMTraffic() {
		t.Error("identical configs+seeds diverged")
	}
	if a.Result().Cycles(0) != b.Result().Cycles(0) {
		t.Error("timing diverged")
	}
}

func TestSLIPSavesL2EnergyOnMixedWorkload(t *testing.T) {
	// Warm up before measuring: pages need enough TLB misses for the
	// sampling state machine to classify them.
	runWarm := func(cfg Config) *System {
		s := New(cfg)
		src := mixedSource(3)
		s.Run(trace.Limit(src, 600_000))
		s.ResetStats()
		s.Run(trace.Limit(src, 600_000))
		return s
	}
	base := runWarm(Config{Policy: Baseline, Seed: 7})
	slip := runWarm(Config{Policy: SLIPABP, Seed: 7})
	if slip.Result().L2TotalPJ() >= base.Result().L2TotalPJ() {
		t.Errorf("SLIP+ABP L2 energy %.0f pJ did not beat baseline %.0f pJ",
			slip.Result().L2TotalPJ(), base.Result().L2TotalPJ())
	}
	// Bypassing must actually happen on the random region's pages.
	if slip.L2(0).Stats.Bypasses.Value() == 0 {
		t.Error("no L2 bypasses on a miss-heavy mix")
	}
	cls := slip.Result().InsertionClassFractions(2)
	if cls[0] == 0 {
		t.Errorf("no ABP insertions recorded: %v", cls)
	}
}

// hotSource streams long enough to fill every way of the L2 with cold
// lines, then loops over a 40KB working set that fits sublevel 0. The
// baseline leaves the loop lines wherever the stream's victims sat;
// promotion policies migrate them into the near sublevel.
func hotSource(seed uint64) trace.Source {
	stream := trace.NewMix(seed, 2,
		trace.MixItem{Region: trace.NewStream(1<<34, 32*mem.MB, 1, 0.1), Weight: 1, Burst: 16})
	loop := trace.NewMix(seed^1, 2,
		trace.MixItem{Region: trace.NewLoop(1<<33, 40*mem.KB, 0.1), Weight: 1, Burst: 16})
	return trace.NewPhased(
		trace.Phase{Source: stream, Len: 100_000},
		trace.Phase{Source: loop, Len: 200_000},
	)
}

func TestNUCAPoliciesBurnMovementEnergy(t *testing.T) {
	base := run(t, Config{Policy: Baseline, Seed: 5}, hotSource(2), 300_000)
	nur := run(t, Config{Policy: NuRAPID, Seed: 5}, hotSource(2), 300_000)
	pea := run(t, Config{Policy: LRUPEA, Seed: 5}, hotSource(2), 300_000)
	if nur.Result().L2MovementPJ() <= base.Result().L2MovementPJ() {
		t.Error("NuRAPID should move far more than baseline")
	}
	if pea.L2(0).Stats.Movements.Value() == 0 {
		t.Error("LRU-PEA never moved a line")
	}
	// Promotion pays off in access energy: more near-sublevel hits on the
	// hot region than the no-movement baseline gets.
	fr := nur.Result().SublevelHitFractions(2)
	frBase := base.Result().SublevelHitFractions(2)
	if fr[0] <= frBase[0] {
		t.Errorf("NuRAPID sublevel-0 hit share %.2f not above baseline %.2f", fr[0], frBase[0])
	}
}

func TestSLIPMetadataTrafficExists(t *testing.T) {
	s := run(t, Config{Policy: SLIPABP, Seed: 9}, mixedSource(4), 300_000)
	if s.MMU(0).Stats.ProfileFetches.Value() == 0 {
		t.Error("no profile fetches")
	}
	if s.L2MetaAccesses == 0 || s.L3MetaAccesses == 0 {
		t.Error("metadata never traversed the hierarchy")
	}
	// With 16-pages-per-line profile packing, most metadata must be
	// serviced by the L3, not DRAM (Section 6).
	if s.L3MetaMisses*3 > s.L3MetaAccesses {
		t.Errorf("too many metadata DRAM trips: %d of %d", s.L3MetaMisses, s.L3MetaAccesses)
	}
}

func TestBaselineHasNoMetadataOrMMU(t *testing.T) {
	s := run(t, Config{Policy: Baseline, Seed: 1}, mixedSource(4), 50_000)
	if s.MMU(0) != nil {
		t.Error("baseline built an MMU")
	}
	if s.L2MetaAccesses != 0 || s.L2(0).Stats.MetadataPJ.PJ() != 0 {
		t.Error("baseline charged metadata")
	}
}

func TestSamplingLimitsMetadataRate(t *testing.T) {
	// A bounded page set with a high TLB miss rate, run long enough for
	// the sampling state machine to reach steady state (pages need ~Nsamp
	// TLB misses each to stabilize).
	src := func() trace.Source {
		return trace.NewMix(5, 2,
			trace.MixItem{Region: trace.NewRandom(1<<33, 4*mem.MB, 0.1), Weight: 1, Burst: 1})
	}
	always := run(t, Config{Policy: SLIPABP, Seed: 2, DisableSampling: true}, src(), 600_000)
	sampled := run(t, Config{Policy: SLIPABP, Seed: 2}, src(), 600_000)
	if sampled.L2MetaAccesses*3 > always.L2MetaAccesses {
		t.Errorf("sampling did not cut metadata traffic: %d vs %d",
			sampled.L2MetaAccesses, always.L2MetaAccesses)
	}
}

func TestStoresProduceDRAMWrites(t *testing.T) {
	s := run(t, Config{Policy: Baseline, Seed: 1}, streamSource(6), 400_000)
	if s.DRAM().Stats.Writes.Value() == 0 {
		t.Error("store-bearing stream never wrote back to DRAM")
	}
}

func TestNRHistogramStreamIsAllZeroReuse(t *testing.T) {
	s := run(t, Config{Policy: Baseline, Seed: 1},
		trace.NewMix(1, 2, trace.MixItem{Region: trace.NewStream(1<<32, 64*mem.MB, 1, 0), Weight: 1, Burst: 16}),
		300_000)
	fr := s.Result().NRFractions()
	if fr[0] < 0.98 {
		t.Errorf("stream NR=0 fraction = %.3f, want ≈ 1", fr[0])
	}
}

func TestNRHistogramLoopLinesReused(t *testing.T) {
	s := run(t, Config{Policy: Baseline, Seed: 1}, loopSource(1, 512*mem.KB), 400_000)
	fr := s.Result().NRFractions()
	if fr[3] < 0.5 {
		t.Errorf("resident loop NR>2 fraction = %.3f, want > 0.5", fr[3])
	}
}

func TestTimingAndIPC(t *testing.T) {
	s := run(t, Config{Policy: Baseline, Seed: 1}, mixedSource(7), 100_000)
	r := s.Result()
	if r.Instrs(0) == 0 || r.Cycles(0) <= 0 {
		t.Fatal("no timing recorded")
	}
	ipc := r.IPC(0)
	if ipc <= 0 || ipc > 1/s.Config().Core.BaseCPI {
		t.Errorf("IPC = %v out of range", ipc)
	}
	if r.MaxCycles() != r.Cycles(0) {
		t.Error("MaxCycles mismatch for single core")
	}
}

func TestMulticoreSharedL3(t *testing.T) {
	s := New(Config{Policy: SLIPABP, NumCores: 2, Seed: 3})
	s.Run(
		trace.Limit(mixedSource(10), 150_000),
		trace.Limit(streamSource(11), 150_000),
	)
	r := s.Result()
	if r.Instrs(0) == 0 || r.Instrs(1) == 0 {
		t.Fatal("a core retired nothing")
	}
	if s.L2(0) == s.L2(1) {
		t.Error("cores share an L2")
	}
	// Both cores inserted into the shared L3.
	if s.L3().Stats.Fills.Value() == 0 {
		t.Error("shared L3 never filled")
	}
	if r.TotalInstrs() != r.Instrs(0)+r.Instrs(1) {
		t.Error("TotalInstrs mismatch")
	}
	if r.MaxCycles() < r.Cycles(0) || r.MaxCycles() < r.Cycles(1) {
		t.Error("MaxCycles below a core's cycles")
	}
}

func TestMulticoreAddressIsolation(t *testing.T) {
	// Two cores running the *same* generator must not share cache lines:
	// shifted addresses make their footprints disjoint, so the shared L3
	// sees twice the distinct lines of a single-core run.
	single := New(Config{Policy: Baseline, Seed: 3})
	single.Run(trace.Limit(streamSource(5), 100_000))
	dual := New(Config{Policy: Baseline, NumCores: 2, Seed: 3})
	dual.Run(trace.Limit(streamSource(5), 100_000), trace.Limit(streamSource(5), 100_000))
	if dual.DRAM().Stats.Reads.Value() < 2*single.DRAM().Stats.Reads.Value()*9/10 {
		t.Errorf("dual-core DRAM reads %d not ≈ 2x single %d",
			dual.DRAM().Stats.Reads.Value(), single.DRAM().Stats.Reads.Value())
	}
}

func TestRunWantsOneSourcePerCore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched source count did not panic")
		}
	}()
	New(Config{Policy: Baseline}).Run()
}

func TestFullSystemEnergyComposition(t *testing.T) {
	s := run(t, Config{Policy: SLIPABP, Seed: 1}, mixedSource(8), 100_000)
	r := s.Result()
	sum := r.CorePJ() + r.L1TotalPJ() + r.L2TotalPJ() + r.L3TotalPJ() + r.DRAMPJ()
	if math.Abs(sum-r.FullSystemPJ()) > 1e-6 {
		t.Error("FullSystemPJ does not sum its parts")
	}
	if r.CorePJ() <= 0 || r.L1TotalPJ() <= 0 {
		t.Error("core/L1 energy missing")
	}
	if r.EOUPJ() <= 0 {
		t.Error("EOU energy never charged despite stable transitions")
	}
}

func TestPolicyKindStrings(t *testing.T) {
	for p, want := range map[PolicyKind]string{
		Baseline: "baseline", SLIP: "slip", SLIPABP: "slip+abp",
		NuRAPID: "nurapid", LRUPEA: "lru-pea",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %s", int(p), p.String())
		}
	}
	if !SLIP.IsSLIP() || !SLIPABP.IsSLIP() || Baseline.IsSLIP() {
		t.Error("IsSLIP wrong")
	}
}

func TestRRIPExtensionRuns(t *testing.T) {
	// The Section 7 adaptation: SRRIP as the underlying replacement policy
	// with masked victim selection must run the whole system correctly.
	s := run(t, Config{Policy: SLIPABP, Seed: 4, UseRRIP: true}, mixedSource(9), 200_000)
	if s.L2(0).Repl().Name() != "rrip" || s.L3().Repl().Name() != "rrip" {
		t.Fatal("RRIP not installed")
	}
	if s.L2(0).Stats.Hits.Value() == 0 {
		t.Error("no hits under RRIP")
	}
}

func TestBinBitsPropagateToSystem(t *testing.T) {
	// 2-bit counters must still produce a working system (the Section 6
	// sensitivity study exercises widths 2..8).
	s := run(t, Config{Policy: SLIPABP, Seed: 4, BinBits: 2}, mixedSource(9), 200_000)
	if s.MMU(0).Stats.TLBMisses.Value() == 0 {
		t.Error("system did not run")
	}
}

func TestSLIPWithoutABPNeverBypasses(t *testing.T) {
	s := run(t, Config{Policy: SLIP, Seed: 4}, mixedSource(9), 300_000)
	if s.L2(0).Stats.Bypasses.Value() != 0 || s.L3().Stats.Bypasses.Value() != 0 {
		t.Error("SLIP without ABP bypassed lines")
	}
	cls := s.Result().InsertionClassFractions(2)
	if cls[0] != 0 {
		t.Errorf("ABP class nonzero without ABP: %v", cls)
	}
}

// TestAccessZeroAllocs guards the hot path of every policy in the table:
// once its scratch (pend lists, TLB arrays, page table) is warm, the
// steady-state access path — including the batch-boundary fold —
// allocates nothing.
func TestAccessZeroAllocs(t *testing.T) {
	const batchLen = 4096
	accs := trace.Collect(mixedSource(3), 64*batchLen)
	for _, p := range AllPolicies() {
		t.Run(p.String(), func(t *testing.T) {
			s := New(Config{Policy: p, Seed: 1})
			idx := 0
			replayBatch := func() {
				for j := 0; j < batchLen; j++ {
					s.Access(0, accs[idx])
					idx++
					if idx == len(accs) {
						idx = 0
					}
				}
				s.FoldPending()
			}
			// Warm scratch through one full replay cycle plus change: every
			// page the loop will ever touch gets its PTE, and the pend lists
			// reach steady capacity.
			for i := 0; i < 72; i++ {
				replayBatch()
			}
			if avg := testing.AllocsPerRun(8, replayBatch); avg != 0 {
				t.Errorf("access+fold path allocates %.1f times per %d-access batch, want 0", avg, batchLen)
			}
		})
	}
}

// TestHotValuesFitRegisters holds every value the access path passes or
// returns per access to the rule under which Go's compiler keeps a value in
// registers: cmd/compile/internal/ssa.CanSSA as of Go 1.24. A value is at
// most four words, an array has at most one element, and a struct has at
// most four fields (ssa.MaxStruct), each held to the same rule. A result
// that breaks it is stored to the stack field by field and read back with
// wide loads the CPU cannot forward from those stores, a stall on every
// access.
func TestHotValuesFitRegisters(t *testing.T) {
	for _, v := range []any{cache.Line{}, cache.Meta{}, cache.AccessResult{},
		policy.Outcome{}, mmu.TranslateResult{}, trace.Access{}} {
		if why := notSSAable(reflect.TypeOf(v)); why != "" {
			t.Errorf("%T does not fit in registers: %s", v, why)
		}
	}
}

// notSSAable mirrors ssa.CanSSA over a reflect type: it returns why t
// breaks the rule, or "" when t keeps to it.
func notSSAable(t reflect.Type) string {
	if limit := 4 * unsafe.Sizeof(uintptr(0)); t.Size() > limit {
		return fmt.Sprintf("%v is %d bytes, over %d", t, t.Size(), limit)
	}
	switch t.Kind() {
	case reflect.Array:
		if t.Len() > 1 {
			return fmt.Sprintf("%v has %d elements, over 1", t, t.Len())
		}
		return notSSAable(t.Elem())
	case reflect.Struct:
		if t.NumField() > 4 {
			return fmt.Sprintf("%v has %d fields, over 4", t, t.NumField())
		}
		for i := 0; i < t.NumField(); i++ {
			if why := notSSAable(t.Field(i).Type); why != "" {
				return why
			}
		}
	}
	return ""
}
