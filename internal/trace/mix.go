package trace

// MixItem is one component of a benchmark mixture: a region, its share of
// the access stream, and the burst length with which its accesses appear
// (real programs issue runs of accesses from one data structure, not a
// per-access shuffle; burst length also controls how much other regions
// inflate this region's reuse distances).
type MixItem struct {
	Region Region
	Weight float64
	Burst  int
}

// Mix interleaves regions in weighted bursts and attaches instruction gaps,
// forming a complete synthetic benchmark trace.
type Mix struct {
	items []MixItem
	// meanGap is the average number of non-memory instructions per access.
	meanGap float64
	rng     *RNG

	cur  int // index of region currently bursting
	left int // accesses left in current burst
	cum  []float64
	// gapP is the per-trial success probability of the geometric gap draw,
	// precomputed so the hot path avoids a division per access.
	gapP float64
}

// NewMix builds a mixture source. meanGap sets the average instruction gap
// between accesses (>= 0); weights need not sum to one.
func NewMix(seed uint64, meanGap float64, items ...MixItem) *Mix {
	if len(items) == 0 {
		panic("trace: mix needs at least one region")
	}
	for _, it := range items {
		if it.Weight <= 0 || it.Burst < 1 || it.Region == nil {
			panic("trace: mix item needs positive weight, burst >= 1 and a region")
		}
	}
	m := &Mix{items: items, meanGap: meanGap, rng: NewRNG(seed)}
	if meanGap > 0 {
		m.gapP = 1.0 / (meanGap + 1)
	}
	// Weight is each region's share of the *access stream*. One selection
	// emits Burst accesses, so selection probability must be proportional
	// to Weight/Burst, not Weight.
	selTotal := 0.0
	for _, it := range items {
		selTotal += it.Weight / float64(it.Burst)
	}
	run := 0.0
	for _, it := range items {
		run += it.Weight / float64(it.Burst) / selTotal
		m.cum = append(m.cum, run)
	}
	m.cum[len(m.cum)-1] = 1.0
	return m
}

// NextBatch implements Source. Mixtures are unbounded, so the batch always
// fills.
func (m *Mix) NextBatch(dst []Access) int {
	for i := range dst {
		if m.left == 0 {
			x := m.rng.Float64()
			m.cur = len(m.items) - 1
			for j, c := range m.cum {
				if x < c {
					m.cur = j
					break
				}
			}
			m.left = m.items[m.cur].Burst
		}
		m.left--
		addr, store := m.items[m.cur].Region.Next(m.rng)
		dst[i] = Access{Addr: addr, Store: store, Gap: m.gap()}
	}
	return len(dst)
}

// gap draws a geometric instruction gap with the configured mean.
func (m *Mix) gap() uint32 {
	if m.meanGap <= 0 {
		return 0
	}
	// A geometric draw with mean g: floor(ln(u)/ln(1-1/(g+1))) clamped.
	g := 0
	for !m.rng.Bool(m.gapP) && g < 1000 {
		g++
	}
	return uint32(g)
}

// Phase is one program phase: a source and how many accesses it lasts.
type Phase struct {
	Source Source
	Len    uint64
}

// Phased cycles through program phases, modelling benchmarks like mcf whose
// reuse behaviour changes over time (the case motivating time-based
// sampling in Section 4.2).
type Phased struct {
	phases []Phase
	idx    int
	used   uint64
}

// NewPhased builds a phase-cycling source.
func NewPhased(phases ...Phase) *Phased {
	if len(phases) == 0 {
		panic("trace: phased source needs at least one phase")
	}
	for _, p := range phases {
		if p.Len == 0 || p.Source == nil {
			panic("trace: each phase needs a source and a positive length")
		}
	}
	return &Phased{phases: phases}
}

// NextBatch implements Source, filling each phase's share of the batch
// with one call to that phase's source. A phase source that ends ends the
// phased stream.
func (p *Phased) NextBatch(dst []Access) int {
	n := 0
	for n < len(dst) {
		ph := p.phases[p.idx]
		if p.used == ph.Len {
			p.used = 0
			p.idx = (p.idx + 1) % len(p.phases)
			continue
		}
		want := int(min(uint64(len(dst)-n), ph.Len-p.used))
		k := ph.Source.NextBatch(dst[n : n+want])
		p.used += uint64(k)
		n += k
		if k < want {
			break
		}
	}
	return n
}

// Interleave merges per-core sources round-robin, the multiprogrammed-mix
// driver for the Figure 16 experiments, and reports which core issued each
// access.
type Interleave struct {
	srcs []Source
	next int
}

// NewInterleave builds a round-robin merger.
func NewInterleave(srcs ...Source) *Interleave {
	if len(srcs) == 0 {
		panic("trace: interleave needs at least one source")
	}
	return &Interleave{srcs: srcs}
}

// NextBatch fills dst with the merged stream and cores[i] with the index of
// the source that produced dst[i]; cores must be at least as long as dst.
// The count follows Source's contract. Exhausted sources are skipped, so
// the merged stream ends only when every source has ended.
func (iv *Interleave) NextBatch(dst []Access, cores []int) int {
	cores = cores[:len(dst)]
	if len(iv.srcs) == 1 {
		k := iv.srcs[0].NextBatch(dst)
		clear(cores[:k])
		return k
	}
next:
	for i := range dst {
		for range iv.srcs {
			c := iv.next
			if iv.next++; iv.next == len(iv.srcs) {
				iv.next = 0
			}
			if iv.srcs[c].NextBatch(dst[i:i+1]) == 1 {
				cores[i] = c
				continue next
			}
		}
		return i // every source has ended
	}
	return len(dst)
}
