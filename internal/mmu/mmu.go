// Package mmu models the virtual-memory side of SLIP (Sections 4.1-4.3): a
// page table whose PTEs carry the per-page SLIP codes (3b per level, stored
// in ignored x86-64 PTE bits) and the sampling-state bit, per-page
// reuse-distance distributions (32b per page, resident in DRAM and fetched
// through the cache hierarchy as metadata traffic), a small fully
// associative TLB, and the time-based sampling state machine with
// Nsamp = 16 and Nstab = 256.
package mmu

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Default sampling parameters from Section 4.2: a sampling page turns
// stable with probability 1/Nsamp per TLB miss, a stable page turns
// sampling with probability 1/Nstab, so roughly
// Nsamp/(Nsamp+Nstab) ≈ 6% of TLB misses fetch distribution metadata.
const (
	DefaultNsamp = 16
	DefaultNstab = 256
	// DefaultTLBEntries is the TLB reach used in evaluation.
	DefaultTLBEntries = 64
	// DefaultMinSamples gates the sampling->stable transition: a page may
	// only stabilize once its distributions hold this many observations,
	// so a page cannot freeze onto a policy chosen from a handful of cold
	// first-touch misses. Sixteen is reachable even for single-bin
	// distributions, whose halving keeps each level's total in [8, 30].
	// (One extra 5-bit comparison in the TLB-miss handler; see DESIGN.md.)
	DefaultMinSamples = 16
)

// PTE is one page's extended page-table entry. The architectural storage is
// 6 SLIP bits + 1 state bit in the PTE plus 32 distribution bits in DRAM;
// this struct is the simulator's single source of truth for both.
type PTE struct {
	// L2SLIP and L3SLIP are the 3-bit policy codes for each level.
	L2SLIP uint8
	L3SLIP uint8
	// Sampling is the state bit: distributions are only collected while
	// sampling, and sampling pages insert with the Default SLIP.
	Sampling bool
	// HasPolicy reports whether the EOU has ever assigned codes; pages
	// without a policy use the Default SLIP (warmup rule of Section 3.1).
	HasPolicy bool
	// L2Dist and L3Dist are the page's quantized reuse-distance
	// distributions (4 bits x 4 bins each, Section 4.1).
	L2Dist core.Dist
	L3Dist core.Dist
	// Pend stages reuse-distance observations not yet folded into the
	// distributions: Pend[0] bins feed L2Dist, Pend[1] bins feed L3Dist.
	// The hierarchy buffers observations here during one replay batch and
	// folds them at the batch boundary, L2 before L3 and bins ascending;
	// the distributions' saturating halving makes Dist.Add order-sensitive,
	// and the digest goldens pin that order within the page and the batch
	// cadence. Counts cannot overflow uint16 — a batch is at most 4096
	// accesses, each adding at most two observations. Pend is empty
	// between runs.
	Pend [2][core.NumBins]uint16
	// PendDirty marks a page with staged observations; the hierarchy keeps
	// dirty pages on a list and clears the flag at each fold.
	PendDirty bool
}

// Config parameterizes the MMU.
type Config struct {
	// Nsamp and Nstab are the sampling state-machine constants (defaults
	// applied when zero).
	Nsamp, Nstab int
	// TLBEntries is the TLB capacity (default applied when zero).
	TLBEntries int
	// Seed drives the random state transitions.
	Seed uint64
	// BinBits overrides the distribution counter width (0 = 4 bits),
	// used by the bit-width sensitivity study.
	BinBits uint8
	// MinSamples overrides the stable-transition evidence gate
	// (default applied when zero; negative disables the gate).
	MinSamples int
	// DisableSampling forces every page to remain in the sampling state
	// forever, modelling the always-fetch design whose metadata traffic
	// motivated time-based sampling (Section 4.1).
	DisableSampling bool
}

// Stats counts MMU events. The hierarchy zeroes them with the rest of its
// statistics when a warmup ends (hier.System.ResetStats), so they cover the
// measured window.
type Stats struct {
	TLBHits         stats.Counter
	TLBMisses       stats.Counter
	ProfileFetches  stats.Counter // 32b distribution reads on TLB miss
	ProfileWrites   stats.Counter // distribution writebacks on TLB eviction
	ToStable        stats.Counter // sampling -> stable transitions
	ToSampling      stats.Counter // stable -> sampling transitions
	PolicyRecomputs stats.Counter // EOU invocations
}

// MMU is the TLB + page table pair. The TLB is an exact LRU over
// TLBEntries slots whose every operation is O(1): slot i holds page
// tlbPages[i] and its PTE tlbPTEs[i]; prev/next chain the slots from the
// most recently translated (head) to the victim (tail); and a hashed
// index finds a page's slot without a scan. The index is open-addressed
// (linear probing over a power-of-two table at most a quarter full) and
// stores slot+1 per entry, 0 marking an empty entry, so the keys live
// only in tlbPages; eviction deletes by backward shift, which keeps every
// probe run free of tombstones. A hit moves its slot to the head and a
// miss reuses the tail's, so the tail is always the least recently
// translated page, whatever order the slots sit in.
type MMU struct {
	cfg   Config
	pages map[mem.PageID]*PTE

	tlbPages   []mem.PageID
	tlbPTEs    []*PTE
	prev, next []int32 // LRU links between slots; -1 ends the list
	head, tail int32   // most and least recently used slots; -1 when empty
	index      []int32 // slot+1 by page hash; 0 is an empty entry
	shift      uint8   // 64 - log2(len(index)), for Fibonacci hashing

	// pStable and pSampling are the per-miss transition probabilities
	// 1/Nsamp and 1/Nstab.
	pStable, pSampling float64
	rng                *trace.RNG

	Stats Stats
}

// New builds an MMU.
func New(cfg Config) *MMU {
	if cfg.Nsamp <= 0 {
		cfg.Nsamp = DefaultNsamp
	}
	if cfg.Nstab <= 0 {
		cfg.Nstab = DefaultNstab
	}
	if cfg.TLBEntries <= 0 {
		cfg.TLBEntries = DefaultTLBEntries
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	logIndex := 2 + bits.Len(uint(cfg.TLBEntries-1)) // load factor at most 1/4
	return &MMU{
		cfg:       cfg,
		pages:     make(map[mem.PageID]*PTE),
		tlbPages:  make([]mem.PageID, 0, cfg.TLBEntries),
		tlbPTEs:   make([]*PTE, 0, cfg.TLBEntries),
		prev:      make([]int32, cfg.TLBEntries),
		next:      make([]int32, cfg.TLBEntries),
		head:      -1,
		tail:      -1,
		index:     make([]int32, 1<<logIndex),
		shift:     uint8(64 - logIndex),
		pStable:   1 / float64(cfg.Nsamp),
		pSampling: 1 / float64(cfg.Nstab),
		rng:       trace.NewRNG(cfg.Seed ^ 0x51e9),
	}
}

// PTEOf returns the page's entry, allocating a fresh sampling-state PTE on
// first touch (pages start sampling so their distributions get collected).
func (m *MMU) PTEOf(p mem.PageID) *PTE {
	pte, ok := m.pages[p]
	if !ok {
		pte = &PTE{Sampling: true}
		pte.L2Dist.Bits = m.cfg.BinBits
		pte.L3Dist.Bits = m.cfg.BinBits
		m.pages[p] = pte
	}
	return pte
}

// NumPages returns the number of pages touched so far.
func (m *MMU) NumPages() int { return len(m.pages) }

// TranslateResult reports what a translation did, so the hierarchy driver
// can issue the implied metadata traffic and EOU work. Its flags sit in the
// embedded TranslateEvents so it keeps to three fields and three words,
// which Go returns in registers (TestHotValuesFitRegisters guards this).
type TranslateResult struct {
	PTE *PTE
	// WritebackProfile is the page whose sampled distribution was displaced
	// from the TLB and must be written back; WritebackValid marks presence.
	WritebackProfile mem.PageID
	TranslateEvents
}

// TranslateEvents holds a TranslateResult's flags; embedding promotes them.
type TranslateEvents struct {
	// TLBMiss reports a page-table walk happened.
	TLBMiss bool
	// FetchProfile is set when the page was sampling at miss time: its 32b
	// distribution must be read through the memory hierarchy (Ë in Fig. 7).
	FetchProfile   bool
	WritebackValid bool
	// BecameStable is set when the sampling state machine transitioned the
	// page to stable: the caller must recompute its SLIPs with the EOU
	// (Í in Fig. 7).
	BecameStable bool
}

// Translate looks page p up in the TLB, running the Section 4.2 state
// machine on misses.
func (m *MMU) Translate(p mem.PageID) TranslateResult {
	s := m.head
	// Same-page bursts resolve at the head without touching the index.
	if s < 0 || m.tlbPages[s] != p {
		if s = m.slotOf(p); s < 0 {
			return m.miss(p)
		}
		m.unlink(s)
		m.pushFront(s)
	}
	m.Stats.TLBHits.Inc()
	return TranslateResult{PTE: m.tlbPTEs[s]}
}

// miss walks the page table for p, installs it in the TLB at the head and
// runs the sampling state machine.
func (m *MMU) miss(p mem.PageID) TranslateResult {
	pte := m.PTEOf(p)
	m.Stats.TLBMisses.Inc()
	res := TranslateResult{PTE: pte}
	res.TLBMiss = true
	s := int32(len(m.tlbPages))
	if int(s) < m.cfg.TLBEntries {
		m.tlbPages = append(m.tlbPages, p)
		m.tlbPTEs = append(m.tlbPTEs, pte)
	} else {
		// Evict the LRU TLB entry; a displaced sampling page's
		// distribution counters are written back to DRAM.
		s = m.tail
		if m.tlbPTEs[s].Sampling {
			m.Stats.ProfileWrites.Inc()
			res.WritebackProfile = m.tlbPages[s]
			res.WritebackValid = true
		}
		m.unindex(s)
		m.unlink(s)
		m.tlbPages[s], m.tlbPTEs[s] = p, pte
	}
	m.pushFront(s)
	// Index p at the first empty entry of its probe run.
	i := m.home(p)
	for m.index[i] != 0 {
		i = (i + 1) & m.indexMask()
	}
	m.index[i] = s + 1
	if pte.Sampling {
		// Distribution metadata is only fetched for sampling pages.
		m.Stats.ProfileFetches.Inc()
		res.FetchProfile = true
	}
	// Random state transition (Ì in Fig. 7).
	if !m.cfg.DisableSampling {
		if pte.Sampling {
			enough := m.cfg.MinSamples < 0 ||
				pte.L2Dist.Total()+pte.L3Dist.Total() >= uint64(m.cfg.MinSamples)
			if enough && m.rng.Bool(m.pStable) {
				pte.Sampling = false
				m.Stats.ToStable.Inc()
				res.BecameStable = true
			}
		} else if m.rng.Bool(m.pSampling) {
			pte.Sampling = true
			m.Stats.ToSampling.Inc()
		}
	}
	return res
}

// home is p's first probe position in the index.
func (m *MMU) home(p mem.PageID) uint32 {
	return uint32(uint64(p) * 0x9e3779b97f4a7c15 >> m.shift)
}

func (m *MMU) indexMask() uint32 { return uint32(len(m.index) - 1) }

// slotOf returns the TLB slot holding p, or -1.
func (m *MMU) slotOf(p mem.PageID) int32 {
	for i := m.home(p); ; i = (i + 1) & m.indexMask() {
		e := m.index[i]
		if e == 0 || m.tlbPages[e-1] == p {
			return e - 1
		}
	}
}

// unindex deletes slot s's index entry. Each later entry of the probe
// run moves back into the hole unless that would put it before its home,
// so every entry stays reachable from its home without tombstones.
func (m *MMU) unindex(s int32) {
	mask := m.indexMask()
	i := m.home(m.tlbPages[s])
	for m.index[i] != s+1 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; m.index[j] != 0; j = (j + 1) & mask {
		if e := m.index[j]; (j-m.home(m.tlbPages[e-1]))&mask >= (j-i)&mask {
			m.index[i] = e
			i = j
		}
	}
	m.index[i] = 0
}

// unlink takes slot s out of the LRU list.
func (m *MMU) unlink(s int32) {
	p, n := m.prev[s], m.next[s]
	if p >= 0 {
		m.next[p] = n
	} else {
		m.head = n
	}
	if n >= 0 {
		m.prev[n] = p
	} else {
		m.tail = p
	}
}

// pushFront makes slot s, not in the list, its head.
func (m *MMU) pushFront(s int32) {
	m.prev[s], m.next[s] = -1, m.head
	if m.head >= 0 {
		m.prev[m.head] = s
	} else {
		m.tail = s
	}
	m.head = s
}

// NotePolicyUpdate counts an EOU recomputation for accounting (the caller
// performs the optimization and stores the codes).
func (m *MMU) NotePolicyUpdate() { m.Stats.PolicyRecomputs.Inc() }

// InTLB reports whether p currently hits in the TLB.
func (m *MMU) InTLB(p mem.PageID) bool { return m.slotOf(p) >= 0 }

// ProfileBase is the base of the reserved physical region where page
// profiles live; data addresses must stay below it.
const ProfileBase = mem.Addr(0xf000_0000_0000)

// ProfileAddr maps a page's 32-bit distribution record to the reserved
// physical region where profiles live, so metadata traffic flows through
// the cache hierarchy like any other access: 16 page profiles share one
// cache line, which is why most metadata requests hit in the L3
// (Section 6, Figure 12 discussion).
func ProfileAddr(p mem.PageID) mem.Addr {
	return ProfileBase + mem.Addr(uint64(p)*4)
}
