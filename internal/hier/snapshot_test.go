package hier

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// stateDigest flattens every externally visible quantity of a run — all
// counters, energies, timing, histograms — plus the resident cache contents
// into one comparable string. Two systems with equal digests after equal
// further simulation are bit-identical in every way the experiments read.
func stateDigest(s *System) string {
	var b strings.Builder
	level := func(name string, l *cache.Level) {
		st := &l.Stats
		fmt.Fprintf(&b, "%s a=%d h=%d m=%d f=%d by=%d mv=%d ev=%d wb=%d sub=%v apj=%v mpj=%v metapj=%v\n",
			name, st.Accesses.Value(), st.Hits.Value(), st.Misses.Value(), st.Fills.Value(),
			st.Bypasses.Value(), st.Movements.Value(), st.Evictions.Value(), st.Writebacks.Value(),
			st.HitsPerSublevel, st.AccessPJ.PJ(), st.MovementPJ.PJ(), st.MetadataPJ.PJ())
		l.ForEachLine(func(set, way int, ln cache.Line) {
			fmt.Fprintf(&b, "  %d.%d %x d=%v m=%v r=%d dem=%v\n",
				set, way, uint64(ln.Addr), ln.Dirty, ln.Meta, ln.Reuses, ln.Demoted)
		})
	}
	for c := range s.cores {
		level(fmt.Sprintf("l1[%d]", c), s.L1(c))
		level(fmt.Sprintf("l2[%d]", c), s.L2(c))
		if m := s.MMU(c); m != nil {
			fmt.Fprintf(&b, "mmu[%d] th=%d tm=%d pf=%d pw=%d ts=%d tsa=%d rc=%d pages=%d\n",
				c, m.Stats.TLBHits.Value(), m.Stats.TLBMisses.Value(),
				m.Stats.ProfileFetches.Value(), m.Stats.ProfileWrites.Value(),
				m.Stats.ToStable.Value(), m.Stats.ToSampling.Value(),
				m.Stats.PolicyRecomputs.Value(), m.NumPages())
		}
		fmt.Fprintf(&b, "core[%d] i=%d cyc=%v ds=%d ps=%d\n",
			c, s.Result().Instrs(c), s.Result().Cycles(c), s.cores[c].DemandStalls, s.cores[c].PolicyStalls)
	}
	level("l3", s.L3())
	d := s.DRAM()
	fmt.Fprintf(&b, "dram r=%d w=%d mr=%d mw=%d pj=%v\n",
		d.Stats.Reads.Value(), d.Stats.Writes.Value(),
		d.Stats.MetadataReads.Value(), d.Stats.MetadataWrites.Value(), s.Result().DRAMPJ())
	fmt.Fprintf(&b, "nr=%v l2d=%d l2ma=%d l2mm=%d l3d=%d l3ma=%d l3mm=%d eou=%v full=%v\n",
		s.NRHist, s.L2DemandMisses, s.L2MetaAccesses, s.L2MetaMisses,
		s.L3DemandMisses, s.L3MetaAccesses, s.L3MetaMisses, s.Result().EOUPJ(), s.Result().FullSystemPJ())
	fmt.Fprintf(&b, "ic2=%v ic3=%v\n", s.Result().InsertionClassFractions(2), s.Result().InsertionClassFractions(3))
	return b.String()
}

// drain advances src by n accesses without simulating them, positioning a
// fresh source chain exactly where a warmed run's source stands.
func drain(src trace.Source, n uint64) trace.Source {
	trace.Drain(src, n)
	return src
}

// allPolicies is every policy kind: enumerating the policy table (rather
// than a hand-kept list) means a new driver is under the snapshot
// bit-identity proof the moment its row exists.
var allPolicies = AllPolicies()

// TestSnapshotRestoreBitIdentity proves the tentpole's correctness claim
// for every policy: a run resumed from a snapshot is bit-identical to one
// that ran straight through, and taking the snapshot perturbs neither the
// original system nor later uses of the same snapshot.
func TestSnapshotRestoreBitIdentity(t *testing.T) {
	const warm, measured = 120_000, 120_000
	for _, p := range allPolicies {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{Policy: p, Seed: 7}

			// Straight-through reference.
			ref := New(cfg)
			src := mixedSource(3)
			ref.Run(trace.Limit(src, warm))
			ref.ResetStats()
			ref.Run(trace.Limit(src, measured))
			want := stateDigest(ref)

			// Warm once, snapshot, and resume three ways.
			warmed := New(cfg)
			wsrc := mixedSource(3)
			warmed.Run(trace.Limit(wsrc, warm))
			warmed.ResetStats()
			snap := warmed.Snapshot()

			clone := snap.System()
			clone.Run(trace.Limit(drain(mixedSource(3), warm), measured))
			if got := stateDigest(clone); got != want {
				t.Errorf("clone diverged from straight-through run:\n--- want ---\n%s--- got ---\n%s", want, got)
			}

			// The original must be unperturbed by the snapshot.
			warmed.Run(trace.Limit(wsrc, measured))
			if got := stateDigest(warmed); got != want {
				t.Errorf("snapshotted original diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
			}

			// A snapshot is reusable: a second materialization after the first
			// was driven must still match.
			again := snap.System()
			again.Run(trace.Limit(drain(mixedSource(3), warm), measured))
			if got := stateDigest(again); got != want {
				t.Error("second materialization of the snapshot diverged")
			}

			if snap.SizeBytes() <= 0 {
				t.Error("snapshot reports a non-positive size")
			}
			for _, s := range []*System{ref, clone, warmed, again} {
				if err := s.CheckInvariants(); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// TestSnapshotBitIdentityMix extends the identity proof to the
// multiprogrammed path: two cores with distinct streams sharing the L3.
func TestSnapshotBitIdentityMix(t *testing.T) {
	const warm, measured = 120_000, 120_000
	cfg := Config{Policy: SLIPABP, NumCores: 2, Seed: 11}
	srcs := func() [2]trace.Source {
		return [2]trace.Source{mixedSource(5), streamSource(9)}
	}

	ref := New(cfg)
	s := srcs()
	ref.Run(trace.Limit(s[0], warm), trace.Limit(s[1], warm))
	ref.ResetStats()
	ref.Run(trace.Limit(s[0], measured), trace.Limit(s[1], measured))
	want := stateDigest(ref)

	warmed := New(cfg)
	w := srcs()
	warmed.Run(trace.Limit(w[0], warm), trace.Limit(w[1], warm))
	warmed.ResetStats()
	snap := warmed.Snapshot()
	clone := snap.System()
	c := srcs()
	clone.Run(trace.Limit(drain(c[0], warm), measured), trace.Limit(drain(c[1], warm), measured))
	if got := stateDigest(clone); got != want {
		t.Errorf("2-core clone diverged:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestSnapshotClonesAreIndependent drives two clones of one snapshot with
// different streams and checks neither contaminates the other — the
// property the parallel warm-cache path depends on.
func TestSnapshotClonesAreIndependent(t *testing.T) {
	cfg := Config{Policy: SLIPABP, Seed: 3}
	sys := New(cfg)
	sys.Run(trace.Limit(mixedSource(3), 60_000))
	sys.ResetStats()
	snap := sys.Snapshot()

	a1 := snap.System()
	a1.Run(trace.Limit(drain(mixedSource(3), 60_000), 60_000))
	b := snap.System()
	b.Run(trace.Limit(streamSource(1), 60_000))
	a2 := snap.System()
	a2.Run(trace.Limit(drain(mixedSource(3), 60_000), 60_000))
	if stateDigest(a1) != stateDigest(a2) {
		t.Error("a clone's run depends on what other clones of the snapshot did")
	}
}
