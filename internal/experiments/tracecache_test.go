package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// digest flattens every architectural statistic of a finished run into one
// comparable string: all level counters and energies, DRAM traffic, MMU
// activity, timing, the NR histogram and the demand/metadata counters. Two
// runs with equal digests took the same decisions access by access.
func digest(res *hier.Result) string {
	var b strings.Builder
	level := func(name string, st *cache.Stats) {
		fmt.Fprintf(&b, "%s a=%d h=%d m=%d f=%d by=%d mv=%d ev=%d wb=%d sub=%v apj=%v mpj=%v metapj=%v\n",
			name, st.Accesses.Value(), st.Hits.Value(), st.Misses.Value(), st.Fills.Value(),
			st.Bypasses.Value(), st.Movements.Value(), st.Evictions.Value(), st.Writebacks.Value(),
			st.HitsPerSublevel, st.AccessPJ.PJ(), st.MovementPJ.PJ(), st.MetadataPJ.PJ())
	}
	for c := range res.Cores {
		cr := &res.Cores[c]
		level(fmt.Sprintf("l1[%d]", c), &cr.L1)
		level(fmt.Sprintf("l2[%d]", c), &cr.L2)
		m := &cr.MMU // zero for policies without an MMU
		fmt.Fprintf(&b, "mmu[%d] th=%d tm=%d pf=%d pw=%d ts=%d tsa=%d rc=%d\n",
			c, m.TLBHits.Value(), m.TLBMisses.Value(),
			m.ProfileFetches.Value(), m.ProfileWrites.Value(),
			m.ToStable.Value(), m.ToSampling.Value(), m.PolicyRecomputs.Value())
		fmt.Fprintf(&b, "core[%d] i=%d cyc=%v\n", c, res.Instrs(c), res.Cycles(c))
	}
	level("l3", &res.L3)
	d := &res.DRAM
	fmt.Fprintf(&b, "dram r=%d w=%d mr=%d mw=%d pj=%v\n",
		d.Reads.Value(), d.Writes.Value(),
		d.MetadataReads.Value(), d.MetadataWrites.Value(), res.DRAMPJ())
	fmt.Fprintf(&b, "nr=%v+%v l2d=%d l2ma=%d l2mm=%d l3d=%d l3ma=%d l3mm=%d eou=%v full=%v\n",
		res.NRHist, res.NRResident, res.L2DemandMisses, res.L2MetaAccesses, res.L2MetaMisses,
		res.L3DemandMisses, res.L3MetaAccesses, res.L3MetaMisses, res.EOUPJ(), res.FullSystemPJ())
	return b.String()
}

// identityOpts is the run sizing shared by the bit-identity tests: large
// enough for the sampling machinery and some TLB pressure, small enough to
// run every policy twice.
func identityOpts() Options {
	return Options{
		Accesses:   60_000,
		Warmup:     60_000,
		Seed:       7,
		Benchmarks: []string{"soplex"},
	}
}

// TestTraceCacheBitIdentity proves the tentpole's correctness claim: for
// the baseline and every evaluated policy, a run driven from the
// materialized replay buffer is bit-identical to one driven from the live
// generator.
func TestTraceCacheBitIdentity(t *testing.T) {
	for _, p := range append([]hier.PolicyKind{hier.Baseline}, evalPolicies...) {
		p := p
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			t.Parallel()
			offOpts := identityOpts()
			offOpts.TraceCacheBytes = -1
			off := NewSuite(offOpts)
			on := NewSuite(identityOpts())
			want := digest(off.Run("soplex", p))
			got := digest(on.Run("soplex", p))
			if got != want {
				t.Errorf("replayed run diverged from generated run:\n--- generated ---\n%s--- replayed ---\n%s", want, got)
			}
			if st := on.TraceCache().Stats(); st.Misses != 1 {
				t.Errorf("cache-on run recorded %d traces, want 1", st.Misses)
			}
		})
	}
}

// TestTraceCacheBitIdentityMix extends the identity proof to the
// multiprogrammed path: two cores, two distinct per-core streams, one
// shared L3 under SLIP+ABP.
func TestTraceCacheBitIdentityMix(t *testing.T) {
	mix := workloads.Mix{A: "soplex", B: "mcf"}
	offOpts := identityOpts()
	offOpts.TraceCacheBytes = -1
	off := NewSuite(offOpts)
	on := NewSuite(identityOpts())
	want := digest(off.RunMix(mix, hier.SLIPABP))
	got := digest(on.RunMix(mix, hier.SLIPABP))
	if got != want {
		t.Errorf("replayed mix run diverged from generated run:\n--- generated ---\n%s--- replayed ---\n%s", want, got)
	}
}

// TestTraceCacheSharedAcrossPolicies checks the cache does what it is for:
// one generation serves the whole policy column of a benchmark.
func TestTraceCacheSharedAcrossPolicies(t *testing.T) {
	s := NewSuite(identityOpts())
	for _, p := range append([]hier.PolicyKind{hier.Baseline}, evalPolicies...) {
		s.Run("soplex", p)
	}
	st := s.TraceCache().Stats()
	if st.Misses != 1 {
		t.Errorf("5 policies recorded %d traces, want 1", st.Misses)
	}
	if st.Hits != 4 {
		t.Errorf("5 policies hit the cache %d times, want 4", st.Hits)
	}
	if st.Bytes <= 0 || st.Entries != 1 {
		t.Errorf("retained %d bytes in %d entries, want one non-empty trace", st.Bytes, st.Entries)
	}
}

// TestTraceCacheBudgetUnderConcurrentRuns bounds the cache under the
// worst case that still reaches its budget: concurrent runs outside any
// prefetched batch (a batch frees each stream after its last reader) over
// more workloads than the byte budget can retain. The budget must hold at
// every instant eviction can be observed, and the LRU must have evicted
// rather than refused.
func TestTraceCacheBudgetUnderConcurrentRuns(t *testing.T) {
	benches := []string{"soplex", "milc", "sphinx3", "mcf"}
	const accesses, warmup = 40_000, 40_000

	// Size the budget off the real traces: room for the largest plus half,
	// so retaining all four is impossible but any single one fits.
	var maxSize int64
	for _, name := range benches {
		wl, _ := workloads.ByName(name)
		if sz := int64(trace.Record(wl.Build(7), accesses+warmup).Size()); sz > maxSize {
			maxSize = sz
		}
	}
	budget := maxSize * 3 / 2

	s := NewSuite(Options{
		Accesses:        accesses,
		Warmup:          warmup,
		WarmupSet:       true,
		Seed:            7,
		Benchmarks:      benches,
		TraceCacheBytes: budget,
	})
	var wg sync.WaitGroup
	for _, name := range benches {
		for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Run(name, p)
			}()
		}
	}
	wg.Wait()

	st := s.TraceCache().Stats()
	if st.Bytes > budget {
		t.Errorf("retained %d bytes, budget %d", st.Bytes, budget)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions with %d workloads over a %d-byte budget (max trace %d)",
			len(benches), budget, maxSize)
	}
	if st.Misses < uint64(len(benches)) {
		t.Errorf("%d misses, want at least one per workload (%d)", st.Misses, len(benches))
	}
}

// checkNoStreamsLeft requires the trace cache to retain no stream.
func checkNoStreamsLeft(t *testing.T, s *Suite) {
	t.Helper()
	if st := s.TraceCache().Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("trace cache retains %d streams (%d bytes) after the batch, want none", st.Entries, st.Bytes)
	}
}

// lifetimeOpts sizes the stream-lifetime tests, small enough for the race
// detector.
func lifetimeOpts(parallelism int) Options {
	return Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks:  []string{"soplex", "milc", "sphinx3"},
		Parallelism: parallelism,
	}
}

// TestBatchFreesEveryStream: a prefetched batch records each stream once,
// serves every other read of it from the cache, and frees it after its
// last reader, so a finished batch leaves the cache empty. A two-core mix
// counts as a reader of both its streams. With one worker, the grouped
// dispatch keeps one stream alive at a time.
func TestBatchFreesEveryStream(t *testing.T) {
	pols := append([]hier.PolicyKind{hier.Baseline}, evalPolicies...)
	t.Run("matrix", func(t *testing.T) {
		for _, par := range []int{1, 4} {
			opts := lifetimeOpts(par)
			var most atomic.Int64 // streams retained at once; read with one worker
			var s *Suite
			opts.Progress = func(string, uint64) {
				if n := int64(s.TraceCache().Stats().Entries); n > most.Load() {
					most.Store(n)
				}
			}
			s = NewSuite(opts)
			s.RunAll(pols...)
			streams, readers := len(opts.Benchmarks), len(opts.Benchmarks)*len(pols)
			st := s.TraceCache().Stats()
			if st.Misses != uint64(streams) || st.Hits != uint64(readers-streams) {
				t.Errorf("parallelism %d: %d misses and %d hits, want %d and %d (one recording per stream)",
					par, st.Misses, st.Hits, streams, readers-streams)
			}
			if par == 1 && most.Load() != 1 {
				t.Errorf("one worker held up to %d streams at once, want 1", most.Load())
			}
			checkNoStreamsLeft(t, s)
		}
	})
	t.Run("mixes", func(t *testing.T) {
		s := NewSuite(lifetimeOpts(2))
		var specs []RunSpec
		for _, p := range []hier.PolicyKind{hier.Baseline, hier.SLIPABP} {
			specs = append(specs, spec.ForMix("soplex", "mcf", p), spec.Single("soplex", p))
		}
		s.Prefetch(specs)
		// soplex (seed 7) feeds all four runs, mcf (seed 8) the two mixes.
		if st := s.TraceCache().Stats(); st.Misses != 2 || st.Hits != 4 {
			t.Errorf("%d misses and %d hits, want 2 and 4", st.Misses, st.Hits)
		}
		checkNoStreamsLeft(t, s)
	})
}

// TestMemoizedBatchReadsNoStream: a batch whose runs are all memoized
// looks up no stream and leaves none behind.
func TestMemoizedBatchReadsNoStream(t *testing.T) {
	s := NewSuite(lifetimeOpts(2))
	s.RunAll(hier.Baseline, hier.SLIPABP)
	before := s.TraceCache().Stats()
	s.RunAll(hier.Baseline, hier.SLIPABP)
	if after := s.TraceCache().Stats(); after.Misses != before.Misses || after.Hits != before.Hits {
		t.Errorf("a memoized batch looked up streams: %+v after %+v", after, before)
	}
	checkNoStreamsLeft(t, s)
}

// TestKeptStreamsServeTheNextBatch: PrefetchKeepingTraces leaves the
// streams it records in the cache, so a later batch over the same streams
// records none, and a PrefetchContext batch that reads them last frees
// them.
func TestKeptStreamsServeTheNextBatch(t *testing.T) {
	s := NewSuite(lifetimeOpts(2))
	ctx := context.Background()
	n := len(s.Options().Benchmarks)
	check := func(step string, hits uint64, entries int) {
		t.Helper()
		if st := s.TraceCache().Stats(); st.Misses != uint64(n) || st.Hits != hits || st.Entries != entries {
			t.Errorf("after %s: %d misses, %d hits, %d entries; want %d, %d, %d",
				step, st.Misses, st.Hits, st.Entries, n, hits, entries)
		}
	}
	_ = s.PrefetchKeepingTraces(ctx, s.matrix(hier.Baseline))
	check("the first kept batch", 0, n)
	_ = s.PrefetchKeepingTraces(ctx, s.matrix(hier.SLIPABP))
	check("the second kept batch", uint64(n), n)
	_ = s.PrefetchContext(ctx, s.matrix(hier.SLIP))
	check("a freeing batch", uint64(2*n), 0)
}

// TestCancelledBatchFreesItsStreams cancels a batch from the first
// progress callback, after its first reader has recorded its stream. With
// one worker, the dispatcher stops before that stream's other reader, so
// the stream goes as the batch returns; with two, both readers of the
// first stream run and the second frees it. Either way every stream the
// batch recorded leaves the cache.
func TestCancelledBatchFreesItsStreams(t *testing.T) {
	for _, par := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		opts := lifetimeOpts(par)
		opts.Accesses = 200_000
		opts.Progress = func(string, uint64) { once.Do(cancel) }
		s := NewSuite(opts)
		if _, err := s.RunAllContext(ctx, hier.Baseline, hier.SLIPABP); !errors.Is(err, context.Canceled) {
			t.Fatalf("parallelism %d: RunAllContext = %v, want context.Canceled", par, err)
		}
		if st := s.TraceCache().Stats(); st.Misses == 0 {
			t.Fatalf("parallelism %d: the batch was cancelled before it recorded a stream", par)
		}
		checkNoStreamsLeft(t, s)
	}
}

// TestTraceCacheSingleflight checks generation dedup: concurrent Gets for
// one key run gen exactly once and all observe the same buffer.
func TestTraceCacheSingleflight(t *testing.T) {
	tc := NewTraceCache(0)
	var gens atomic.Uint64
	gen := func(context.Context) (*trace.Buffer, error) {
		gens.Add(1)
		wl, _ := workloads.ByName("soplex")
		return trace.Record(wl.Build(3), 10_000), nil
	}

	const callers = 16
	bufs := make([]*trace.Buffer, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := tc.Get(context.Background(), traceCacheKey("soplex", 3, 10_000), gen)
			if err != nil {
				t.Errorf("caller %d: Get: %v", i, err)
			}
			bufs[i] = b
		}(i)
	}
	wg.Wait()

	if n := gens.Load(); n != 1 {
		t.Errorf("gen ran %d times, want 1", n)
	}
	for i, b := range bufs {
		if b != bufs[0] {
			t.Errorf("caller %d got a different buffer", i)
		}
		if b == nil || b.Len() != 10_000 {
			t.Errorf("caller %d: buffer %v, want 10000 accesses", i, b)
		}
	}
	st := tc.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Errorf("stats hits=%d misses=%d, want hits=%d misses=1", st.Hits, st.Misses, callers-1)
	}
	if st.Entries != 1 || st.Bytes != int64(bufs[0].Size()) {
		t.Errorf("retained %d entries / %d bytes, want 1 / %d", st.Entries, st.Bytes, bufs[0].Size())
	}
}

// TestTraceCacheSkipsUnretainableStreams checks the suite never
// materializes a stream that could not be retained (2 bytes/access lower
// bound over the budget): the run still completes, off the live generator,
// without touching the cache.
func TestTraceCacheSkipsUnretainableStreams(t *testing.T) {
	opts := identityOpts()
	opts.TraceCacheBytes = 4 << 10 // far below 2 bytes x 120k accesses
	s := NewSuite(opts)
	sys := s.Run("soplex", hier.SLIPABP)
	if sys.TotalInstrs() == 0 {
		t.Fatal("run produced no instructions")
	}
	if st := s.TraceCache().Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Errorf("unretainable stream touched the cache: %+v", st)
	}
}
