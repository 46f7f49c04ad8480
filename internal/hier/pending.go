package hier

// Batch-boundary folding of staged reuse-distance evidence.
//
// Evidence sites in accessL2/accessL3 stage observations into PTE.Pend
// instead of applying Dist.Add inline (see stageEvidence). This file folds
// each staged page's counts into that page's own two distributions, L2
// vector before L3 and bins low to high, so the fold result is a pure
// function of the *set* of observations a page collected in the batch,
// never of the interleaving that produced them. A page's fold reads and
// writes nothing of any other page, so the order in which pages fold
// changes no bit. The distributions' saturating halving makes Dist.Add
// order-sensitive, so the order within a page and the fixed 4096-access
// batch cadence are part of the simulated semantics: the digest goldens
// pin both, and folding each observation immediately instead would change
// them.

import "repro/internal/core"

// applyPend folds one page's staged counts into its distributions in the
// canonical intra-page order (L2 vector first, bins low to high, each
// observation an individual Add so the saturating halving fires exactly
// where it would in a canonical sequential replay of the batch).
func applyPend(l2, l3 *core.Dist, counts *[2][core.NumBins]uint16) {
	for bin := 0; bin < core.NumBins; bin++ {
		for n := counts[0][bin]; n > 0; n-- {
			l2.Add(bin)
		}
	}
	for bin := 0; bin < core.NumBins; bin++ {
		for n := counts[1][bin]; n > 0; n-- {
			l3.Add(bin)
		}
	}
}

// FoldPending folds all staged reuse-distance evidence into the page
// distributions and clears the staging buffers. RunContext calls it at
// every batch boundary and at stream end; callers driving Access directly
// (benchmark harnesses) must call it themselves every few thousand
// accesses, both to let pages stabilize and to keep the uint16 staging
// counters far from saturation.
func (s *System) FoldPending() {
	for _, cn := range s.cores {
		for _, page := range cn.pendPages {
			pte := cn.mmu.PTEOf(page)
			applyPend(&pte.L2Dist, &pte.L3Dist, &pte.Pend)
			pte.Pend = [2][core.NumBins]uint16{}
			pte.PendDirty = false
		}
		cn.pendPages = cn.pendPages[:0]
	}
}
