package mmu

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestFirstTouchIsSamplingTLBMiss(t *testing.T) {
	m := New(Config{Seed: 1})
	res := m.Translate(5)
	if !res.TLBMiss {
		t.Error("first touch must miss the TLB")
	}
	if !res.FetchProfile {
		t.Error("sampling page must fetch its profile on TLB miss")
	}
	if res.PTE == nil || !res.PTE.Sampling && !res.BecameStable {
		t.Error("fresh page must start sampling")
	}
	if m.NumPages() != 1 {
		t.Errorf("NumPages = %d", m.NumPages())
	}
}

func TestTLBHitAfterMiss(t *testing.T) {
	m := New(Config{Seed: 1})
	m.Translate(5)
	res := m.Translate(5)
	if res.TLBMiss || res.FetchProfile {
		t.Error("second touch must hit the TLB with no metadata fetch")
	}
	if m.Stats.TLBHits.Value() != 1 || m.Stats.TLBMisses.Value() != 1 {
		t.Errorf("stats: %+v", m.Stats)
	}
}

func TestTLBEvictionLRUAndProfileWriteback(t *testing.T) {
	m := New(Config{Seed: 1, TLBEntries: 2, DisableSampling: true})
	m.Translate(1)
	m.Translate(2)
	m.Translate(1) // refresh 1; page 2 is now LRU
	res := m.Translate(3)
	if !res.WritebackValid || res.WritebackProfile != 2 {
		t.Errorf("writeback = %v valid=%v, want page 2", res.WritebackProfile, res.WritebackValid)
	}
	if m.InTLB(2) {
		t.Error("evicted page still in TLB")
	}
	if !m.InTLB(1) || !m.InTLB(3) {
		t.Error("resident pages missing")
	}
	if m.Stats.ProfileWrites.Value() != 1 {
		t.Errorf("ProfileWrites = %d", m.Stats.ProfileWrites.Value())
	}
}

func TestStablePagesDoNotFetchProfiles(t *testing.T) {
	m := New(Config{Seed: 1, TLBEntries: 1})
	pte := m.PTEOf(7)
	pte.Sampling = false
	m.Translate(7)
	if m.Stats.ProfileFetches.Value() != 0 {
		t.Error("stable page fetched a profile")
	}
	// Displacing a stable page must not write back a profile either.
	m.Translate(8)
	if m.Stats.ProfileWrites.Value() != 0 {
		t.Error("stable page wrote back a profile")
	}
}

func TestSamplingTransitionRates(t *testing.T) {
	m := New(Config{Seed: 42, TLBEntries: 1, Nsamp: 16, Nstab: 256, MinSamples: -1})
	// Hammer TLB misses on alternating pages and track the long-run
	// fraction of misses that fetch metadata; Section 4.2 predicts about
	// Nsamp/(Nsamp+Nstab) ≈ 5.9%.
	fetches := 0
	const n = 200000
	for i := 0; i < n; i++ {
		res := m.Translate(mem.PageID(i % 2))
		if res.FetchProfile {
			fetches++
		}
	}
	frac := float64(fetches) / n
	want := 16.0 / (16 + 256)
	if math.Abs(frac-want) > 0.02 {
		t.Errorf("profile fetch fraction = %.3f, want ≈ %.3f", frac, want)
	}
	if m.Stats.ToStable.Value() == 0 || m.Stats.ToSampling.Value() == 0 {
		t.Error("state machine never transitioned")
	}
}

func TestBecameStableSignals(t *testing.T) {
	m := New(Config{Seed: 3, TLBEntries: 1, MinSamples: -1})
	sawStable := false
	for i := 0; i < 1000 && !sawStable; i++ {
		res := m.Translate(mem.PageID(i % 2))
		if res.BecameStable {
			sawStable = true
			if res.PTE.Sampling {
				t.Error("BecameStable with Sampling still set")
			}
		}
	}
	if !sawStable {
		t.Error("no stable transition in 1000 misses with Nsamp=16")
	}
}

func TestDisableSamplingKeepsSampling(t *testing.T) {
	m := New(Config{Seed: 3, TLBEntries: 1, DisableSampling: true})
	for i := 0; i < 2000; i++ {
		if res := m.Translate(mem.PageID(i % 2)); res.BecameStable {
			t.Fatal("transition despite DisableSampling")
		}
	}
	if m.Stats.ProfileFetches.Value() != 2000 {
		t.Errorf("every miss must fetch when sampling is pinned: %d", m.Stats.ProfileFetches.Value())
	}
}

func TestMinSamplesGatesStabilization(t *testing.T) {
	m := New(Config{Seed: 3, TLBEntries: 1, MinSamples: 10})
	// Without recorded samples the page must never stabilize.
	for i := 0; i < 2000; i++ {
		if res := m.Translate(mem.PageID(i % 2)); res.BecameStable {
			t.Fatal("page stabilized without evidence")
		}
	}
	// Once the distributions carry enough observations it can.
	for _, p := range []mem.PageID{0, 1} {
		pte := m.PTEOf(p)
		for i := 0; i < 10; i++ {
			pte.L2Dist.Add(0)
		}
	}
	saw := false
	for i := 0; i < 2000 && !saw; i++ {
		saw = m.Translate(mem.PageID(i % 2)).BecameStable
	}
	if !saw {
		t.Error("page with evidence never stabilized")
	}
}

func TestBinBitsPropagate(t *testing.T) {
	m := New(Config{Seed: 1, BinBits: 2})
	pte := m.PTEOf(9)
	for i := 0; i < 4; i++ {
		pte.L2Dist.Add(0)
	}
	// With 2-bit counters, the fourth add must have halved: [3]->[1]->2.
	if pte.L2Dist.Bins[0] != 2 {
		t.Errorf("BinBits not applied: bins = %v", pte.L2Dist.Bins)
	}
}

func TestProfileAddrSharing(t *testing.T) {
	// 16 consecutive pages share one metadata cache line.
	a, b := ProfileAddr(0), ProfileAddr(15)
	if a.Line() != b.Line() {
		t.Error("pages 0 and 15 must share a profile line")
	}
	if ProfileAddr(16).Line() == a.Line() {
		t.Error("page 16 must be on the next profile line")
	}
}

func TestNotePolicyUpdate(t *testing.T) {
	m := New(Config{})
	m.NotePolicyUpdate()
	if m.Stats.PolicyRecomputs.Value() != 1 {
		t.Error("recompute not counted")
	}
}

// stampTLB is the reference model for the TLB: the page table and
// sampling state machine of MMU, with the TLB as it was before the hashed
// index. A hit scans the slots; a miss evicts the slot with the smallest
// stamp, and every translation stamps its slot with a fresh clock tick,
// so the victim is the least recently translated page.
type stampTLB struct {
	cfg    Config
	pages  map[mem.PageID]*PTE
	slots  []mem.PageID
	ptes   []*PTE
	stamps []uint64
	clock  uint64
	rng    *trace.RNG
	stats  Stats
}

func newStampTLB(cfg Config) *stampTLB {
	cfg = New(cfg).cfg // the same defaults
	return &stampTLB{cfg: cfg, pages: map[mem.PageID]*PTE{}, rng: trace.NewRNG(cfg.Seed ^ 0x51e9)}
}

func (r *stampTLB) pteOf(p mem.PageID) *PTE {
	pte, ok := r.pages[p]
	if !ok {
		pte = &PTE{Sampling: true}
		pte.L2Dist.Bits = r.cfg.BinBits
		pte.L3Dist.Bits = r.cfg.BinBits
		r.pages[p] = pte
	}
	return pte
}

func (r *stampTLB) translate(p mem.PageID) TranslateResult {
	r.clock++
	for i, pg := range r.slots {
		if pg == p {
			r.stamps[i] = r.clock
			r.stats.TLBHits.Inc()
			return TranslateResult{PTE: r.ptes[i]}
		}
	}
	pte := r.pteOf(p)
	r.stats.TLBMisses.Inc()
	res := TranslateResult{PTE: pte}
	res.TLBMiss = true
	if len(r.slots) >= r.cfg.TLBEntries {
		victim := 0
		for i, st := range r.stamps {
			if st < r.stamps[victim] {
				victim = i
			}
		}
		if r.ptes[victim].Sampling {
			r.stats.ProfileWrites.Inc()
			res.WritebackProfile = r.slots[victim]
			res.WritebackValid = true
		}
		r.slots[victim], r.ptes[victim], r.stamps[victim] = p, pte, r.clock
	} else {
		r.slots = append(r.slots, p)
		r.ptes = append(r.ptes, pte)
		r.stamps = append(r.stamps, r.clock)
	}
	if pte.Sampling {
		r.stats.ProfileFetches.Inc()
		res.FetchProfile = true
	}
	if !r.cfg.DisableSampling {
		if pte.Sampling {
			enough := r.cfg.MinSamples < 0 ||
				pte.L2Dist.Total()+pte.L3Dist.Total() >= uint64(r.cfg.MinSamples)
			if enough && r.rng.Bool(1/float64(r.cfg.Nsamp)) {
				pte.Sampling = false
				r.stats.ToStable.Inc()
				res.BecameStable = true
			}
		} else if r.rng.Bool(1 / float64(r.cfg.Nstab)) {
			pte.Sampling = true
			r.stats.ToSampling.Inc()
		}
	}
	return res
}

// sameResult compares two translations, their PTEs by value.
func sameResult(a, b TranslateResult) bool {
	if *a.PTE != *b.PTE {
		return false
	}
	a.PTE, b.PTE = nil, nil
	return a == b
}

// matchStampReference drives an MMU and the stamp reference with one page
// stream, and from its midpoint also a clone of the MMU, requiring equal
// results step by step, equal Stats at the end and intact invariants.
// Every third step records one observation in the page's L2 distribution
// on every side, so an evidence gate can open.
func matchStampReference(t *testing.T, cfg Config, pages []mem.PageID) {
	t.Helper()
	ref, m := newStampTLB(cfg), New(cfg)
	mmus := []*MMU{m}
	for i, p := range pages {
		if i == len(pages)/2 {
			mmus = append(mmus, m.Clone())
		}
		want := ref.translate(p)
		for j, x := range mmus {
			if got := x.Translate(p); !sameResult(got, want) {
				t.Fatalf("%+v: step %d page %d (mmu %d): got %+v %+v, reference %+v %+v",
					cfg, i, p, j, got, *got.PTE, want, *want.PTE)
			}
		}
		if i%3 == 0 {
			ref.pteOf(p).L2Dist.Add(i % 4)
			for _, x := range mmus {
				x.PTEOf(p).L2Dist.Add(i % 4)
			}
		}
	}
	for j, x := range mmus {
		if x.Stats != ref.stats {
			t.Errorf("%+v: mmu %d stats %+v, reference %+v", cfg, j, x.Stats, ref.stats)
		}
		if err := x.CheckInvariants(); err != nil {
			t.Errorf("%+v: mmu %d: %v", cfg, j, err)
		}
	}
}

// samplingConfigs are the state-machine settings the reference tests
// cover: evidence-gated, ungated, gated on a little evidence, and pinned
// sampling.
var samplingConfigs = []Config{
	{},
	{MinSamples: -1},
	{MinSamples: 3, Nsamp: 2, Nstab: 5},
	{DisableSampling: true},
}

// TestTLBMatchesStampReference checks the O(1) TLB against the stamp-scan
// reference on random page streams whose working sets sit below, at and
// above the TLB's reach, half of them in same-page bursts.
func TestTLBMatchesStampReference(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 64, 100} {
		for _, ws := range []int{max(entries/2, 1), entries, entries + 1, 2 * entries, 8 * entries} {
			for ci, sc := range samplingConfigs {
				cfg := sc
				cfg.TLBEntries, cfg.Seed = entries, uint64(ws*10+ci)
				rng := trace.NewRNG(uint64(entries*1000 + ws))
				pages := make([]mem.PageID, 6000)
				for i := range pages {
					if i > 0 && rng.Intn(2) == 0 {
						pages[i] = pages[i-1]
						continue
					}
					pages[i] = mem.PageID(rng.Intn(ws)) * 0x1003
				}
				matchStampReference(t, cfg, pages)
			}
		}
	}
}

// FuzzTLBMatchesReference decodes a TLB size, a sampling setting and a
// page stream from the fuzz input and checks the TLB against the stamp
// reference on it. Each page is one byte scaled by a stride, so streams
// revisit pages and collide in the index.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 1, 3, 1, 2})
	f.Add([]byte{3, 1, 5, 5, 6, 7, 8, 5, 9, 6, 10})
	f.Add([]byte{64, 2, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1, 0})
	f.Add([]byte{100, 3, 7, 7, 7, 7, 200, 199, 198})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := samplingConfigs[int(data[1])%len(samplingConfigs)]
		cfg.TLBEntries, cfg.Seed = 1+int(data[0])%100, uint64(data[0])
		stride := mem.PageID(1) << (data[1] % 64)
		pages := make([]mem.PageID, len(data)-2)
		for i, b := range data[2:] {
			pages[i] = mem.PageID(b) * stride
		}
		matchStampReference(t, cfg, pages)
	})
}

// TestCheckInvariantsCatchesCorruption breaks each redundant TLB
// structure in turn and requires CheckInvariants to report it.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	build := func() *MMU {
		m := New(Config{Seed: 1, TLBEntries: 4})
		for _, p := range []mem.PageID{1, 2, 3, 4, 5, 6, 3} {
			m.Translate(p)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	for name, corrupt := range map[string]func(m *MMU){
		"index entry cleared": func(m *MMU) { m.index[m.home(m.tlbPages[0])] = 0 },
		"stray index entry":   func(m *MMU) { m.index[(m.home(m.tlbPages[0])+5)&m.indexMask()] = 1 },
		"duplicate page":      func(m *MMU) { m.tlbPages[1] = m.tlbPages[0] },
		"foreign PTE":         func(m *MMU) { m.tlbPTEs[0] = &PTE{} },
		"prev link":           func(m *MMU) { m.prev[m.tail] = -1 },
		"next link":           func(m *MMU) { m.next[m.head] = m.head },
		"tail":                func(m *MMU) { m.tail = m.head },
		"staged evidence":     func(m *MMU) { m.PTEOf(2).PendDirty = true },
	} {
		m := build()
		corrupt(m)
		if m.CheckInvariants() == nil {
			t.Errorf("%s: CheckInvariants reported nothing", name)
		}
	}
}

// TestSizeBytesCoversClone requires the snapshot charge to cover what a
// clone retains: its page-table map, flat PTE array and TLB arrays. The
// page counts include each side of the map's growth points, where its
// load is lowest, and soplex's and lbm's page counts. Each count retains
// enough clones to total at least 1 MiB and compares their summed charge
// with their summed retention: the heap delta around them also counts
// whatever else the runtime allocated meanwhile, and a few KiB of that
// must not decide the one-page case.
func TestSizeBytesCoversClone(t *testing.T) {
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // and once more, to free what pools dropped
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	live() // settle the runtime's one-time allocations first
	for _, pages := range []int{1, 8, 9, 449, 897, 1025, 1793, 2816, 3585, 4288, 7169, 20000} {
		m := New(Config{Seed: 1})
		for p := 0; p < pages; p++ {
			m.Translate(mem.PageID(p))
		}
		clones := make([]*MMU, (1<<20)/m.SizeBytes()+1)
		before := live()
		for i := range clones {
			clones[i] = m.Clone()
		}
		retained := live() - before
		size := 0
		for _, c := range clones {
			size += c.SizeBytes()
		}
		if uint64(size) < retained {
			t.Errorf("%d pages: %d clones' SizeBytes total %d, below the %d bytes they retain",
				pages, len(clones), size, retained)
		}
		runtime.KeepAlive(clones)
		runtime.KeepAlive(m)
	}
}
