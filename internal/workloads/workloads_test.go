package workloads

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/reuse"
	"repro/internal/trace"
)

func TestRegistryValid(t *testing.T) {
	if err := Validate(); err != nil {
		t.Fatal(err)
	}
	if len(All()) != 14 {
		t.Errorf("benchmark count = %d, want the paper's 14", len(All()))
	}
	if len(Mixes()) != 8 {
		t.Errorf("mix count = %d, want 8", len(Mixes()))
	}
}

func TestByName(t *testing.T) {
	s, ok := ByName("mcf")
	if !ok || s.Name != "mcf" {
		t.Fatal("mcf lookup failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("unknown benchmark found")
	}
}

func TestEveryBenchmarkProducesAccesses(t *testing.T) {
	for _, spec := range All() {
		accs := trace.Collect(spec.Build(3), 20000)
		if len(accs) != 20000 {
			t.Fatalf("%s: source exhausted", spec.Name)
		}
		seen := map[mem.PageID]bool{}
		stores := 0
		for _, a := range accs {
			seen[a.Addr.Page()] = true
			if a.Store {
				stores++
			}
		}
		if len(seen) < 8 {
			t.Errorf("%s: only %d distinct pages in 20k accesses", spec.Name, len(seen))
		}
		if stores == 0 {
			t.Errorf("%s: no stores at all", spec.Name)
		}
	}
}

func TestBenchmarksDeterministic(t *testing.T) {
	for _, spec := range All() {
		if !slices.Equal(trace.Collect(spec.Build(5), 2000), trace.Collect(spec.Build(5), 2000)) {
			t.Fatalf("%s: same seed, different streams", spec.Name)
		}
	}
}

func TestSeedsChangeStreams(t *testing.T) {
	spec, _ := ByName("omnetpp")
	if slices.Equal(trace.Collect(spec.Build(1), 500), trace.Collect(spec.Build(2), 500)) {
		t.Error("different seeds produced identical streams")
	}
}

// TestMilcIsStreamDominated: milc is the canonical NR=0 workload — almost
// every line reference is a first touch or a beyond-LLC reuse.
func TestMilcIsStreamDominated(t *testing.T) {
	spec, _ := ByName("milc")
	calc := reuse.NewCalculator(1 << 18)
	h := reuse.NewHistogram([]uint64{mem.LinesIn(2 * mem.MB)})
	var prev mem.LineAddr = ^mem.LineAddr(0)
	for _, a := range trace.Collect(spec.Build(7), 120_000) {
		// Collapse the word-granular touches the L1 absorbs; only line
		// transitions matter at LLC scale.
		if l := a.Addr.Line(); l != prev {
			h.Observe(calc.Observe(l))
			prev = l
		}
	}
	if fr := h.Fractions(); fr[1] < 0.6 {
		t.Errorf("milc beyond-LLC fraction = %.2f, want > 0.6", fr[1])
	}
}

// TestSphinx3HasNearReuse: sphinx3's acoustic-model hotspot gives it a
// solid body of reuses that fit the LLC.
func TestSphinx3HasNearReuse(t *testing.T) {
	spec, _ := ByName("sphinx3")
	calc := reuse.NewCalculator(1 << 18)
	h := reuse.NewHistogram([]uint64{mem.LinesIn(2 * mem.MB)})
	for _, a := range trace.Collect(spec.Build(7), 200_000) {
		if d := calc.Observe(a.Addr.Line()); d != reuse.Infinite {
			h.Observe(d)
		}
	}
	if fr := h.Fractions(); fr[0] < 0.3 {
		t.Errorf("sphinx3 LLC-fitting reuse fraction = %.2f, want > 0.3", fr[0])
	}
}

// TestMcfHasPhases: mcf's second phase shifts traffic to a new arena.
func TestMcfHasPhases(t *testing.T) {
	spec, _ := ByName("mcf")
	loopArena := mem.Addr(4 << 32) // arena(3)
	inFirst, inSecond := 0, 0
	for i, a := range trace.Collect(spec.Build(7), 1_900_000) {
		hit := a.Addr >= loopArena && a.Addr < loopArena+(1<<32)
		if i < 1_200_000 {
			if hit {
				inFirst++
			}
		} else if hit {
			inSecond++
		}
	}
	if inFirst != 0 {
		t.Errorf("phase-B arena touched %d times during phase A", inFirst)
	}
	if inSecond == 0 {
		t.Error("phase-B arena never touched in phase B")
	}
}

// TestArenasAreDisjoint: every region of every benchmark lives in its own
// 4GiB arena, keeping pages pattern-homogeneous.
func TestArenasAreDisjoint(t *testing.T) {
	for _, spec := range All() {
		arenas := map[uint64]bool{}
		for _, a := range trace.Collect(spec.Build(11), 50_000) {
			arenas[uint64(a.Addr)>>32] = true
		}
		if len(arenas) < 2 {
			t.Errorf("%s: all traffic in one arena", spec.Name)
		}
	}
}

// TestGapsMatchSpec: the instruction gaps average near the declared value.
func TestGapsMatchSpec(t *testing.T) {
	spec, _ := ByName("gcc")
	sum := 0.0
	const n = 50_000
	for _, a := range trace.Collect(spec.Build(13), n) {
		sum += float64(a.Gap)
	}
	mean := sum / n
	if mean < spec.Gap*0.8 || mean > spec.Gap*1.2 {
		t.Errorf("gcc mean gap = %.1f, spec %.1f", mean, spec.Gap)
	}
}

func BenchmarkGeneratorThroughput(b *testing.B) {
	spec, _ := ByName("soplex")
	src := spec.Build(1)
	batch := make([]trace.Access, 4096)
	b.ResetTimer()
	for done := 0; done < b.N; {
		done += src.NextBatch(batch[:min(len(batch), b.N-done)])
	}
}
