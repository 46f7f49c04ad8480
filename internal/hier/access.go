package hier

import (
	"context"
	"sync"

	"repro/internal/cache"
	slipcore "repro/internal/core"
	"repro/internal/mem"
	"repro/internal/mmu"
	"repro/internal/policy"
	"repro/internal/trace"
)

// coreShift places each core's private address space in a disjoint region
// (below the metadata region at mmu.ProfileBase).
const coreShift = 44

// MaxCores is the most cores the address map holds: core c's region
// starts at c<<coreShift, so from core MaxCores on, a region would overlap
// the metadata region.
const MaxCores = int(mmu.ProfileBase >> coreShift)

// shiftAddr relocates a core-local address into the core's region.
func shiftAddr(coreID int, a mem.Addr) mem.Addr {
	return a | mem.Addr(uint64(coreID)<<coreShift)
}

// Run drives one trace source per core through the system, interleaving
// round-robin, until every source is exhausted. Multi-core runs relocate
// each core's addresses into a private region (the multiprogrammed, no
// -sharing setup of Section 6).
func (s *System) Run(srcs ...trace.Source) {
	// A background context never cancels, so the error is impossible.
	_ = s.RunContext(context.Background(), nil, srcs...)
}

// cancelCheckEvery is the access stride between context polls and progress
// reports in RunContext. A power of two keeps the check a single mask on
// the hot path; at ~300 ns/access one stride is ~1 ms of simulation, so
// cancellation latency stays well under any service deadline.
const cancelCheckEvery = 4096

// runScratch pools RunContext's decode buffers and its interleave, whose
// per-core staging lanes a multi-core run fills. The parallel experiment
// engine starts thousands of short runs (two RunContext calls each, warmup
// and measurement), and fresh ~100 KiB buffers per call are pure GC
// pressure; the buffers are overwritten before every read, so reuse cannot
// affect results.
var runScratch = sync.Pool{New: func() any {
	return &runBuffers{
		batch: make([]trace.Access, cancelCheckEvery),
		cores: make([]int, cancelCheckEvery),
	}
}}

type runBuffers struct {
	batch []trace.Access
	cores []int
	iv    trace.Interleave
}

// RunContext is Run with a cancellation hook: every cancelCheckEvery
// accesses it polls ctx (returning ctx.Err() mid-trace when cancelled) and
// invokes progress, if non-nil, with the cumulative number of accesses
// driven across all sources. progress also fires once at exhaustion. An
// uncancelled RunContext performs exactly the access sequence Run does, so
// results are bit-identical.
func (s *System) RunContext(ctx context.Context, progress func(done uint64), srcs ...trace.Source) error {
	s.mustBeLive("Run")
	if len(srcs) != len(s.cores) {
		panic("hier: Run needs exactly one source per core")
	}
	// The trace is consumed in cancelCheckEvery-sized batches: one
	// NextBatch call replaces a few thousand interface dispatches through
	// the interleave/limiter/generator chain, and materialized traces
	// (trace.Buffer replays) decode in a tight varint loop. Single-core
	// runs take the same loop: core 0's shiftAddr is the identity.
	done := ctx.Done()
	buffers := runScratch.Get().(*runBuffers)
	defer runScratch.Put(buffers)
	batch, cores, iv := buffers.batch, buffers.cores, &buffers.iv
	iv.Reset(srcs...)
	defer iv.Reset() // a pooled interleave must not pin the sources
	var n uint64
	for {
		k := iv.NextBatch(batch, cores)
		for i, a := range batch[:k] {
			a.Addr = shiftAddr(cores[i], a.Addr)
			s.Access(cores[i], a)
		}
		// Batch boundary: fold staged reuse-distance evidence in canonical
		// order (see pending.go). The fold runs at fixed access counts,
		// never at data-dependent points; the digest goldens pin that
		// cadence.
		s.FoldPending()
		n += uint64(k)
		if k < len(batch) {
			if progress != nil {
				progress(n)
			}
			return nil
		}
		if done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
		if progress != nil {
			progress(n)
		}
	}
}

// RunShardedContext is RunContext; the shard count is ignored.
//
// Deprecated: every run is sequential. Call RunContext.
func (s *System) RunShardedContext(ctx context.Context, _ int, progress func(done uint64), srcs ...trace.Source) error {
	return s.RunContext(ctx, progress, srcs...)
}

// Access pushes one reference from core coreID through the hierarchy.
func (s *System) Access(coreID int, a trace.Access) {
	cn := s.cores[coreID]
	cn.Instrs += uint64(1 + a.Gap)

	line := a.Addr.Line()
	var pte *mmu.PTE
	if cn.mmu != nil {
		// The TLB and page-sampling machinery are page-grain, not
		// set-indexed, so under set sampling they still see the full
		// access stream: thinning them would distort TLB miss rates,
		// sampling-page selection and stabilization cadence nonlinearly
		// (short page streaks vanish under thinning), a bias that grows
		// with run length. Translating every access keeps the whole
		// per-page state machine exactly on its full-fidelity trajectory;
		// only the set-indexed work below (tags, policy, energy) is
		// thinned.
		pte = s.translate(cn, a.Addr.Page())
	}
	if s.sampleMask != 0 {
		// Set-sampled fast path: accesses outside the sampled line-address
		// groups short-circuit before tag, policy and energy work,
		// contributing only their base-CPI instruction time (implicit in
		// the derived Cycles). Instruction counts stay exact; stalls accrue
		// only from the sample and are extrapolated by ScaledCycles.
		if s.sampleMask&(1<<(uint64(line)&63)) == 0 {
			s.SkippedAccesses++
			return
		}
		s.SampledAccesses++
	}

	lat := s.cfg.Core.L1LatencyCyc
	r1 := cn.l1.Access(line, a.Store)
	if !r1.Hit {
		lat += s.accessL2(cn, line, pte, a.Addr.Page())
		s.fillL1(cn, line, a.Store)
	}
	if stall := lat - s.cfg.Core.OverlapCycles; stall > 0 {
		cn.demandStalls += uint64(stall)
	}
}

// translate runs the TLB/sampling machinery and returns the page's PTE.
// Under set sampling the page-grain state machine runs at full rate, but
// the cache traffic it generates (profile-line fetches and writebacks) is
// set-indexed like any other line, so it passes through the same sampled-
// group filter as demand traffic — metadata counters and energy then thin
// by ~1/K alongside everything else and the uniform xK extrapolation in
// the Scaled* accessors stays consistent.
func (s *System) translate(cn *coreNode, page mem.PageID) *mmu.PTE {
	res := cn.mmu.Translate(page)
	if res.FetchProfile {
		if ml := mmu.ProfileAddr(page).Line(); s.sampledLine(ml) {
			s.metaFetch(cn, ml)
		}
	}
	if res.WritebackValid {
		if ml := mmu.ProfileAddr(res.WritebackProfile).Line(); s.sampledLine(ml) {
			s.metaWriteback(ml)
		}
	}
	if res.BecameStable {
		s.recomputePolicy(cn, res.PTE)
	}
	return res.PTE
}

// sampledLine reports whether a line address falls in a sampled set group
// (always true when set sampling is off).
func (s *System) sampledLine(line mem.LineAddr) bool {
	return s.sampleMask == 0 || s.sampleMask&(1<<(uint64(line)&63)) != 0
}

// recomputePolicy runs the EOU for both levels on a page that just turned
// stable (step Í of Figure 7) and stores the 3-bit codes in the PTE. The
// EOU reads only folded distributions, so evidence staged in the current
// batch does not count until the next batch boundary.
func (s *System) recomputePolicy(cn *coreNode, pte *mmu.PTE) {
	sl2, _ := s.eouL2.Optimize(&pte.L2Dist)
	sl3, _ := s.eouL3.Optimize(&pte.L3Dist)
	pte.L2SLIP = s.encL2.Code(sl2)
	pte.L3SLIP = s.encL3.Code(sl3)
	pte.HasPolicy = true
	cn.mmu.NotePolicyUpdate()
	// Two optimizations (one per level); the TLB blocks for one cycle while
	// the policy bits update.
	s.EOUOps += 2
	cn.policyStalls++
}

// metaFor derives the sidecar metadata for an insertion: sampling pages and
// pages the EOU has not yet classified use the Default SLIP (Sections 3.1
// and 4.2); stable pages use their PTE codes.
func (s *System) metaFor(pte *mmu.PTE) cache.Meta {
	if pte == nil {
		return cache.Meta{}
	}
	if pte.Sampling || !pte.HasPolicy {
		return cache.Meta{
			L2Code:   s.defaultCode(2),
			L3Code:   s.defaultCode(3),
			Sampling: pte.Sampling,
		}
	}
	return cache.Meta{L2Code: pte.L2SLIP, L3Code: pte.L3SLIP}
}

// defaultCode returns the Default SLIP code for a level.
func (s *System) defaultCode(level int) uint8 {
	if level == 3 {
		return s.defCodeL3
	}
	return s.defCodeL2
}

// latencyOf returns the hit latency at a level: the uniform baseline latency
// when the policy pipelines all ways identically, per-way otherwise. The
// uniform flag is the cached driver answer, keeping interface dispatch off
// the per-hit path.
func latencyOf(l *cache.Level, uniform bool, way int) int {
	if uniform {
		return l.Params().BaselineLatency
	}
	return l.Params().WayLatency[way]
}

// stageEvidence buffers one reuse-distance observation for a sampling page
// (which=0 feeds L2Dist, which=1 feeds L3Dist) instead of applying it
// inline. All evidence within one replay batch is staged here and folded
// in a canonical order at the batch boundary (FoldPending), the order the
// digest goldens pin.
func (s *System) stageEvidence(cn *coreNode, pte *mmu.PTE, page mem.PageID, which, bin int) {
	if !pte.PendDirty {
		pte.PendDirty = true
		cn.pendPages = append(cn.pendPages, page)
	}
	pte.Pend[which][bin]++
}

// accessL2 services an L1 miss from the L2 and below, returning the added
// latency in cycles. The line ends up resident in L1's backing levels per
// policy (and is always returned to the L1 by the caller).
func (s *System) accessL2(cn *coreNode, line mem.LineAddr, pte *mmu.PTE, page mem.PageID) int {
	r2 := cn.l2.Access(line, false)
	if r2.Hit {
		if pte != nil && pte.Sampling {
			// RDLines is already at whole-level scale (the level keeps
			// per-group timestamps and rescales), so the observation bins
			// directly against the full-capacity boundaries.
			s.stageEvidence(cn, pte, page, 0, slipcore.BinFor(r2.RDLines, s.cumL2))
			// An L2 hit at reuse distance d is also evidence for the L3
			// vector: had the L2 not served it, the L3 would have at the
			// same line distance. Without this cross-update the L3 never
			// observes reuses the (sampling-time Default) L2 absorbs, and
			// pages whose lines fit the L2 get a bogus all-miss L3 profile
			// — the stale-bypass pathology discussed in DESIGN.md.
			s.stageEvidence(cn, pte, page, 1, slipcore.BinFor(r2.RDLines, s.cumL3))
		}
		lat := latencyOf(cn.l2, s.uniformLat, r2.Way)
		cn.d2.OnHit(cn.l2, r2.Set, r2.Way)
		return lat
	}
	s.L2DemandMisses++
	if pte != nil && pte.Sampling {
		s.stageEvidence(cn, pte, page, 0, slipcore.MissBin)
	}
	lat := cn.l2.Params().BaselineLatency // miss detection
	lat += s.accessL3(cn, line, pte, page)
	// Insert into the L2 (the policy may bypass).
	out := cn.d2.Insert(cn.l2, line, false, s.metaFor(pte))
	if out.Evicted.Valid && out.Evicted.Dirty {
		s.writebackToL3(out.Evicted)
	}
	return lat
}

// accessL3 services an L2 miss from the L3/DRAM, returning added latency.
func (s *System) accessL3(cn *coreNode, line mem.LineAddr, pte *mmu.PTE, page mem.PageID) int {
	r3 := s.l3.Access(line, false)
	if r3.Hit {
		if pte != nil && pte.Sampling {
			s.stageEvidence(cn, pte, page, 1, slipcore.BinFor(r3.RDLines, s.cumL3))
		}
		lat := latencyOf(s.l3, s.uniformLat, r3.Way)
		s.d3.OnHit(s.l3, r3.Set, r3.Way)
		return lat
	}
	s.L3DemandMisses++
	if pte != nil && pte.Sampling {
		s.stageEvidence(cn, pte, page, 1, slipcore.MissBin)
	}
	lat := s.l3.Params().BaselineLatency + s.dram.Read()
	out := s.d3.Insert(s.l3, line, false, s.metaFor(pte))
	s.noteL3Outcome(out)
	return lat
}

// noteL3Outcome records Figure 1 reuse counts and forwards dirty evictions
// to DRAM.
func (s *System) noteL3Outcome(out policy.Outcome) {
	if out.Evicted.Valid {
		s.NRHist[nrBucket(out.Evicted.Reuses)]++
		if out.Evicted.Dirty {
			s.dram.Write()
		}
	}
}

// nrBucket is the Figure 1 bucket of a line's reuse count (0, 1, 2, >2).
func nrBucket(reuses uint32) int { return int(min(reuses, 3)) }

// fillL1 installs a line into the L1 after it was serviced below.
func (s *System) fillL1(cn *coreNode, line mem.LineAddr, store bool) {
	set := cn.l1.SetOf(line)
	way := cn.l1.VictimIn(set, cache.FullMask(cn.l1.NumWays()))
	ev := cn.l1.Fill(set, way, line, store, cache.Meta{})
	if ev.Valid {
		cn.l1.NoteEviction(ev.Dirty)
		if ev.Dirty {
			cn.l1.EvictionRead(way)
			s.writebackFromL1(cn, ev.Addr)
		}
	}
}

// writebackFromL1 pushes a dirty L1 line down: into the L2 copy when
// present, else the L3 copy, else straight to DRAM (a line bypassed from
// both lower levels).
func (s *System) writebackFromL1(cn *coreNode, a mem.LineAddr) {
	if cn.l2.WritebackTo(a) {
		return
	}
	if s.l3.WritebackTo(a) {
		return
	}
	s.dram.Write()
}

// writebackToL3 lands a dirty L2 eviction: merged into the resident L3 copy
// when present, otherwise allocated via the L3 policy (which may bypass it
// straight to DRAM under ABP).
func (s *System) writebackToL3(ev cache.Line) {
	if s.l3.WritebackTo(ev.Addr) {
		return
	}
	out := s.d3.Insert(s.l3, ev.Addr, true, ev.Meta)
	if out.Bypassed {
		s.dram.Write()
		return
	}
	s.noteL3Outcome(out)
}

// metaFetch reads a page's 32b distribution record through the hierarchy:
// it misses the (never-allocating) L2, usually hits the L3 where profile
// lines are cached, and falls back to DRAM (Section 4.1's metadata
// traffic).
func (s *System) metaFetch(cn *coreNode, metaLine mem.LineAddr) {
	s.L2MetaAccesses++
	if r2 := cn.l2.Access(metaLine, false); r2.Hit {
		return
	}
	s.L2MetaMisses++
	s.L3MetaAccesses++
	if r3 := s.l3.Access(metaLine, false); r3.Hit {
		s.d3.OnHit(s.l3, r3.Set, r3.Way)
		return
	}
	s.L3MetaMisses++
	s.dram.MetadataRead()
	meta := cache.Meta{L2Code: s.defaultCode(2), L3Code: s.defaultCode(3)}
	out := s.d3.Insert(s.l3, metaLine, false, meta)
	s.noteL3Outcome(out)
}

// metaWriteback flushes a displaced page's distribution counters to its
// profile line (L3 if cached there, else DRAM).
func (s *System) metaWriteback(metaLine mem.LineAddr) {
	if s.l3.WritebackTo(metaLine) {
		return
	}
	s.dram.MetadataWrite()
}
