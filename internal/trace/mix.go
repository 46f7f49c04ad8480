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
	// and gapK its boolThreshold, precomputed so the hot path draws with
	// integer compares alone.
	gapP float64
	gapK uint64
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
		m.gapK = boolThreshold(m.gapP)
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

// gap draws a geometric instruction gap with the configured mean: it
// counts failed Bool(gapP) trials before the first success, capped at
// 1000, and so consumes g+1 draws. The RNG state stays in a register for
// the loop and each trial is one integer compare against gapK.
func (m *Mix) gap() uint32 {
	if m.meanGap <= 0 {
		return 0
	}
	s, k := m.rng.s, m.gapK
	g := uint32(0)
	for {
		s = xorshift(s)
		if (s*rngMul)>>11 < k || g == 1000 {
			break
		}
		g++
	}
	m.rng.s = s
	return g
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
// access. A merge of two or more sources pulls each source in bulk into a
// lane of its own staging buffer and merges from the lanes, so every
// source pays one NextBatch call per lane fill rather than one per access.
type Interleave struct {
	srcs  []Source
	next  int
	stage []Access
	lanes []lane
}

// lane is one source's window of stage: its pulled but unmerged accesses
// are stage[lo:hi], and ended records a short count from the source, after
// which it is never pulled again.
type lane struct {
	lo, hi int
	ended  bool
}

// NewInterleave builds a round-robin merger.
func NewInterleave(srcs ...Source) *Interleave {
	if len(srcs) == 0 {
		panic("trace: interleave needs at least one source")
	}
	iv := &Interleave{}
	iv.Reset(srcs...)
	return iv
}

// Reset points iv at a new set of sources, dropping anything staged from
// the old ones but keeping the staging memory, so a pooled merger
// allocates nothing per use. With no sources it only releases the old
// ones, and NextBatch returns 0 until the next Reset.
func (iv *Interleave) Reset(srcs ...Source) {
	clear(iv.srcs)
	iv.srcs, iv.next = append(iv.srcs[:0], srcs...), 0
	iv.lanes = append(iv.lanes[:0], make([]lane, len(srcs))...)
}

// NextBatch fills dst with the merged stream and cores[i] with the index of
// the source that produced dst[i]; cores must be at least as long as dst.
// The count follows Source's contract. Exhausted sources are skipped, so
// the merged stream ends only when every source has ended.
func (iv *Interleave) NextBatch(dst []Access, cores []int) int {
	cores = cores[:len(dst)]
	n := len(iv.srcs)
	if n == 1 {
		k := iv.srcs[0].NextBatch(dst)
		clear(cores[:k])
		return k
	}
	if len(iv.stage) < n {
		// Lanes of about len(dst)/n accesses: one pull per source per
		// batch while every source lasts.
		iv.stage = make([]Access, max(len(dst), n))
	}
next:
	for i := range dst {
		for range n {
			c := iv.next
			if iv.next++; iv.next == n {
				iv.next = 0
			}
			ln := &iv.lanes[c]
			if ln.lo == ln.hi {
				if ln.ended {
					continue
				}
				width := len(iv.stage) / n
				k := iv.srcs[c].NextBatch(iv.stage[c*width : (c+1)*width])
				ln.lo, ln.hi, ln.ended = c*width, c*width+k, k < width
				if k == 0 {
					continue
				}
			}
			dst[i] = iv.stage[ln.lo]
			ln.lo++
			cores[i] = c
			continue next
		}
		return i // every source has ended
	}
	return len(dst)
}
