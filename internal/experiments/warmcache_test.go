package experiments

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// coldOpts returns the identity sizing with every cache disabled — the
// straight-through reference configuration.
func coldOpts() Options {
	o := identityOpts()
	o.TraceCacheBytes = -1
	return o
}

// warmOpts returns the identity sizing with a fresh warm cache.
func warmOpts() Options {
	o := identityOpts()
	o.WarmCache = NewWarmCache(0)
	return o
}

// TestWarmCacheBitIdentity proves the warm-state tentpole's correctness
// claim at the suite level: for every policy, a run seeded from a cached
// warm snapshot is bit-identical to a straight-through run, both on the
// miss path (this suite built the snapshot) and on the hit path (a second
// suite reuses it with a different measured window).
func TestWarmCacheBitIdentity(t *testing.T) {
	for _, p := range append([]hier.PolicyKind{hier.Baseline}, evalPolicies...) {
		p := p
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			t.Parallel()
			cold := NewSuite(coldOpts())
			warm := NewSuite(warmOpts())
			want := digest(cold.Run("soplex", p))
			if got := digest(warm.Run("soplex", p)); got != want {
				t.Errorf("warm-cache miss-path run diverged:\n--- cold ---\n%s--- warm ---\n%s", want, got)
			}
			st := warm.WarmCache().Stats()
			if st.Misses != 1 {
				t.Errorf("first run recorded %d warm misses, want 1", st.Misses)
			}

			// A second suite sharing the warm cache but measuring a longer
			// window must hit the snapshot and still match its own
			// straight-through reference.
			longOpts := coldOpts()
			longOpts.Accesses = 90_000
			coldLong := NewSuite(longOpts)
			hitOpts := identityOpts()
			hitOpts.Accesses = 90_000
			hitOpts.WarmCache = warm.WarmCache()
			hot := NewSuite(hitOpts)
			wantLong := digest(coldLong.Run("soplex", p))
			if got := digest(hot.Run("soplex", p)); got != wantLong {
				t.Errorf("warm-cache hit-path run diverged:\n--- cold ---\n%s--- hot ---\n%s", wantLong, got)
			}
			st = warm.WarmCache().Stats()
			if st.Hits == 0 {
				t.Errorf("hit-path run recorded no warm-cache hit: %+v", st)
			}
			if st.Misses != 1 {
				t.Errorf("hit-path run re-ran the warmup: %d misses", st.Misses)
			}

			// The one retained snapshot is budgeted at its estimated size.
			snap, ok := warm.WarmCache().Peek(warmCacheKey(warm.mustResolve(spec.Single("soplex", p))))
			if !ok {
				t.Fatal("warm snapshot not retained")
			}
			if st.Entries != 1 || st.Bytes != int64(snap.SizeBytes()) {
				t.Errorf("retained %d bytes in %d entries, want the snapshot's %d-byte estimate", st.Bytes, st.Entries, snap.SizeBytes())
			}
		})
	}
}

// TestWarmCacheBitIdentityMix extends the proof to the multiprogrammed
// path: two cores, distinct per-core streams, shared L3.
func TestWarmCacheBitIdentityMix(t *testing.T) {
	mix := workloads.Mix{A: "soplex", B: "mcf"}
	cold := NewSuite(coldOpts())
	warm := NewSuite(warmOpts())
	want := digest(cold.RunMix(mix, hier.SLIPABP))
	if got := digest(warm.RunMix(mix, hier.SLIPABP)); got != want {
		t.Errorf("mix warm run diverged:\n--- cold ---\n%s--- warm ---\n%s", want, got)
	}
}

// TestWarmCacheSharedParallel drives a policy matrix through four suites
// with different measured windows, all sharing one WarmCache and running
// concurrently with Parallelism >= 4 — the digest-equality-under-race
// acceptance criterion. Each spec's result must equal the cold reference.
func TestWarmCacheSharedParallel(t *testing.T) {
	shared := NewWarmCache(0)
	windows := []uint64{30_000, 45_000, 60_000, 75_000}
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)

	// Cold references, one per window x policy.
	want := make(map[string]string)
	for _, acc := range windows {
		o := coldOpts()
		o.Accesses = acc
		cold := NewSuite(o)
		for _, p := range pols {
			want[fmt.Sprintf("%d/%s", acc, p)] = digest(cold.Run("soplex", p))
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	diverged := make([]string, 0)
	for _, acc := range windows {
		acc := acc
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := identityOpts()
			o.Accesses = acc
			o.Parallelism = 4
			o.WarmCache = shared
			s := NewSuite(o)
			specs := make([]RunSpec, 0, len(pols))
			for _, p := range pols {
				specs = append(specs, spec.Single("soplex", p))
			}
			if err := s.PrefetchContext(context.Background(), specs); err != nil {
				t.Errorf("prefetch: %v", err)
				return
			}
			for _, p := range pols {
				got := digest(s.Run("soplex", p))
				if got != want[fmt.Sprintf("%d/%s", acc, p)] {
					mu.Lock()
					diverged = append(diverged, fmt.Sprintf("%d/%s", acc, p))
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if len(diverged) > 0 {
		t.Errorf("runs diverged from cold references: %v", diverged)
	}
	st := shared.Stats()
	// One warmup per policy (the windows share every warm identity), served
	// to all four windows.
	if st.Misses != uint64(len(pols)) {
		t.Errorf("shared cache ran %d warmups, want %d (one per policy)", st.Misses, len(pols))
	}
	if st.Hits == 0 {
		t.Error("shared cache recorded no hits across four windows")
	}
}

// TestWarmCacheKeyProjection pins which canonical-spec fields are inside
// the warm identity. Exactly one field — the measured window — is outside;
// everything else must split the key. A new spec field that lands in the
// "same key" row by accident will fail the complementary hier digest tests
// only if a test exercises it, so this pin is the cheap first line of
// defense.
func TestWarmCacheKeyProjection(t *testing.T) {
	base := func() spec.Spec {
		sp := spec.Single("soplex", hier.SLIPABP)
		sp.Accesses = 50_000
		w := uint64(25_000)
		sp.Warmup = &w
		sp.Seed = 7
		return mustCanonical(t, sp)
	}
	key := warmCacheKey(base())

	// Out of the key: the measured window.
	same := base()
	same.Accesses = 999_999
	if warmCacheKey(same) != key {
		t.Error("Accesses must be outside the warm identity (warm state does not depend on the measured window)")
	}

	// In the key: everything else.
	split := []struct {
		name   string
		mutate func(*spec.Spec)
	}{
		{"workload", func(s *spec.Spec) { s.Workload = "mcf" }},
		{"mix_with+cores", func(s *spec.Spec) { s.MixWith = "mcf"; s.Cores = 2 }},
		{"cores", func(s *spec.Spec) { s.Cores = 2 }},
		{"warmup", func(s *spec.Spec) { w := uint64(30_000); s.Warmup = &w }},
		{"seed", func(s *spec.Spec) { s.Seed = 8 }},
		{"policy", func(s *spec.Spec) { s.Policy = "slip" }},
		{"bin_bits", func(s *spec.Spec) { s.BinBits = 6 }},
		{"disable_sampling", func(s *spec.Spec) { s.DisableSampling = true }},
		{"use_rrip", func(s *spec.Spec) { s.UseRRIP = true }},
		{"tech", func(s *spec.Spec) { s.Tech = "22nm" }},
		{"topology", func(s *spec.Spec) { s.Topology = "h-tree" }},
		{"l2_bytes", func(s *spec.Spec) { s.L2Bytes = 512 * 1024 }},
		{"l3_bytes", func(s *spec.Spec) { s.L3Bytes = 4 * 1024 * 1024 }},
		{"dram", func(s *spec.Spec) { s.DRAM = &spec.DRAMSpec{LatencyCycles: 80, PJPerBit: 11} }},
	}
	for _, tc := range split {
		sp := spec.Single("soplex", hier.SLIPABP)
		sp.Accesses = 50_000
		w := uint64(25_000)
		sp.Warmup = &w
		sp.Seed = 7
		tc.mutate(&sp)
		if k := warmCacheKey(mustCanonical(t, sp)); k == key {
			t.Errorf("%s must be inside the warm identity but did not change the key", tc.name)
		}
	}
}

func mustCanonical(t *testing.T, sp spec.Spec) spec.Spec {
	t.Helper()
	c, err := sp.Canonical()
	if err != nil {
		t.Fatalf("canonicalize: %v", err)
	}
	return c
}

// TestWarmCacheSingleflight: concurrent Gets for one key must run exactly
// one warmup and everyone gets the same snapshot.
func TestWarmCacheSingleflight(t *testing.T) {
	c := NewWarmCache(0)
	sp := mustCanonical(t, spec.Single("soplex", hier.Baseline))
	var gens sync.WaitGroup
	var genCount int32
	var mu sync.Mutex
	snaps := make(map[*hier.Snapshot]int)
	for i := 0; i < 8; i++ {
		gens.Add(1)
		go func() {
			defer gens.Done()
			snap, err := c.Get(context.Background(), warmCacheKey(sp), func(context.Context) (*hier.Snapshot, error) {
				mu.Lock()
				genCount++
				mu.Unlock()
				cfg, _ := sp.Build()
				return hier.New(cfg).Snapshot(), nil
			})
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			mu.Lock()
			snaps[snap]++
			mu.Unlock()
		}()
	}
	gens.Wait()
	if genCount != 1 {
		t.Errorf("gen ran %d times, want 1", genCount)
	}
	if len(snaps) != 1 {
		t.Errorf("callers saw %d distinct snapshots, want 1", len(snaps))
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Errorf("stats = %+v, want 1 miss / 7 hits", st)
	}
	for snap := range snaps {
		if st.Entries != 1 || st.Bytes != int64(snap.SizeBytes()) {
			t.Errorf("retained %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, snap.SizeBytes())
		}
	}
}

// FuzzSnapshotWarmSplit is the snapshot/restore equivalence fuzz: any valid
// spec (seeded from the spec JSON fuzz corpus) with any warmup split point
// must produce the same digest through the warm-state path as straight
// through, and both Results must hold every counter identity of their
// window. Footprints and run lengths are bounded to keep each case fast.
func FuzzSnapshotWarmSplit(f *testing.F) {
	f.Add([]byte(`{"workload":"milc","policy":"baseline"}`), uint16(1000))
	f.Add([]byte(`{"workload":"soplex","policy":"slip-abp","bin_bits":6,"use_rrip":true}`), uint16(0))
	f.Add([]byte(`{"workload":"milc","mix_with":"sphinx3","policy":"slip","cores":2,"seed":9}`), uint16(7777))
	f.Add([]byte(`{"workload":"mcf","policy":"slip+abp","tech":"22nm","topology":"h-tree","dram":{"latency_cycles":80,"pj_per_bit":11}}`), uint16(30000))
	f.Add([]byte(`{"workload":"omnetpp","policy":"lru-pea"}`), uint16(123))
	f.Add([]byte(`{"workload":"astar","policy":"nurapid","seed":3}`), uint16(64999))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		sp, err := spec.Parse(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		// Bound the run: small measured window, warmup = the fuzzed split
		// point, capped footprint so a fuzzed sizing cannot stall the fuzzer.
		sp.Accesses = 20_000
		w := uint64(split)
		sp.Warmup = &w
		c, err := sp.Canonical()
		if err != nil {
			t.Skip()
		}
		if c.Cores > 2 || c.L2Bytes > 1<<20 || c.L3Bytes > 8<<20 {
			t.Skip()
		}

		cold := NewSuite(Options{
			Accesses: c.Accesses, Warmup: w, WarmupSet: true, Seed: c.Seed,
			TraceCacheBytes: -1,
		})
		warm := NewSuite(Options{
			Accesses: c.Accesses, Warmup: w, WarmupSet: true, Seed: c.Seed,
			WarmCache: NewWarmCache(0),
		})
		ref, err := cold.RunSpecContext(context.Background(), c)
		if err != nil {
			t.Skip() // invalid at Build time: rejection is correct behavior
		}
		got, err := warm.RunSpecContext(context.Background(), c)
		if err != nil {
			t.Fatalf("warm path failed where cold path ran: %v", err)
		}
		if digest(got) != digest(ref) {
			t.Errorf("warm-path digest diverged for spec %s split %d:\n--- cold ---\n%s--- warm ---\n%s",
				c.Label(), split, digest(ref), digest(got))
		}
		if err := ref.CheckWindow(c.Accesses); err != nil {
			t.Errorf("cold result of spec %s split %d: %v", c.Label(), split, err)
		}
		if err := got.CheckWindow(c.Accesses); err != nil {
			t.Errorf("warm result of spec %s split %d: %v", c.Label(), split, err)
		}
	})
}
