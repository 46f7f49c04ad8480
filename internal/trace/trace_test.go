package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/reuse"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Error("different seeds produced identical first draw")
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed stuck at zero")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(11)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / float64(n); math.Abs(frac-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %v", frac)
	}
}

func TestStreamSequentialAndWraps(t *testing.T) {
	r := NewRNG(1)
	s := NewStream(0x1000, 4*mem.LineBytes, 1, 0)
	var got []mem.Addr
	for i := 0; i < 8; i++ {
		a, _ := s.Next(r)
		got = append(got, a)
	}
	for i, a := range got {
		want := mem.Addr(0x1000 + (i%4)*mem.LineBytes)
		if a != want {
			t.Errorf("access %d = %v, want %v", i, a, want)
		}
	}
}

func TestStreamWordGranularity(t *testing.T) {
	r := NewRNG(1)
	s := NewStream(0, 2*mem.LineBytes, 4, 0)
	// Four word accesses per line, all within the same line.
	first, _ := s.Next(r)
	for i := 1; i < 4; i++ {
		a, _ := s.Next(r)
		if a.Line() != first.Line() {
			t.Fatalf("word %d escaped line", i)
		}
		if a != first+mem.Addr(i*8) {
			t.Fatalf("word %d addr = %v", i, a)
		}
	}
	next, _ := s.Next(r)
	if next.Line() != first.Line()+1 {
		t.Error("did not advance to next line after WordsPerLine words")
	}
}

func TestLoopReuseDistanceEqualsFootprint(t *testing.T) {
	r := NewRNG(1)
	const lines = 32
	l := NewLoop(0, lines*mem.LineBytes, 0)
	c := reuse.NewCalculator(64)
	for i := 0; i < lines; i++ {
		a, _ := l.Next(r)
		c.Observe(a.Line())
	}
	for i := 0; i < lines; i++ {
		a, _ := l.Next(r)
		if d := c.Observe(a.Line()); d != lines-1 {
			t.Fatalf("loop reuse distance = %d, want %d", d, lines-1)
		}
	}
}

func TestRandomStaysInFootprint(t *testing.T) {
	r := NewRNG(3)
	reg := NewRandom(0x10000, 64*mem.LineBytes, 0.5)
	stores := 0
	for i := 0; i < 1000; i++ {
		a, st := reg.Next(r)
		if a < 0x10000 || a >= 0x10000+64*mem.LineBytes {
			t.Fatalf("address %v out of footprint", a)
		}
		if st {
			stores++
		}
	}
	if stores < 400 || stores > 600 {
		t.Errorf("store fraction off: %d/1000", stores)
	}
}

func TestPointerChaseCoversAllLines(t *testing.T) {
	r := NewRNG(4)
	const lines = 64
	p := NewPointerChase(0, lines*mem.LineBytes, 0)
	seen := map[mem.LineAddr]bool{}
	for i := 0; i < lines; i++ {
		a, _ := p.Next(r)
		seen[a.Line()] = true
	}
	if len(seen) != lines {
		t.Errorf("chase visited %d distinct lines in one cycle, want %d", len(seen), lines)
	}
}

func TestPointerChaseRequiresPow2(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-pow2 chase did not panic")
		}
	}()
	NewPointerChase(0, 3*mem.LineBytes, 0)
}

func TestStencilReusesAtPlaneDistance(t *testing.T) {
	r := NewRNG(5)
	const planeLines = 16
	s := NewStencil(0, 64*planeLines*mem.LineBytes, planeLines*mem.LineBytes, 0)
	c := reuse.NewCalculator(1024)
	hist := reuse.NewHistogram([]uint64{4 * planeLines})
	for i := 0; i < 20000; i++ {
		a, _ := s.Next(r)
		if d := c.Observe(a.Line()); d != reuse.Infinite {
			hist.Observe(d)
		}
	}
	// Each sweep touches a line three times: two reuses at plane distance
	// and one across the full sweep, so about 2/3 of reuses are short.
	if fr := hist.Fractions(); fr[0] < 0.6 || fr[0] > 0.8 {
		t.Errorf("stencil short-reuse fraction = %v, want ~2/3", fr[0])
	}
}

func TestScanReuseShortSegmentsFitNearChunk(t *testing.T) {
	r := NewRNG(6)
	const shortBytes = 16 * mem.KB
	s := NewScanReuse(0, 4*mem.MB, shortBytes, 1.0, 0) // always short
	c := reuse.NewCalculator(1 << 16)
	reused, short := 0, 0
	for i := 0; i < 50000; i++ {
		a, _ := s.Next(r)
		if d := c.Observe(a.Line()); d != reuse.Infinite {
			reused++
			if d < mem.LinesIn(64*mem.KB) {
				short++
			}
		}
	}
	if reused == 0 {
		t.Fatal("scan-reuse produced no reuses")
	}
	// Re-walk reuses are short; occasional overlaps between successive
	// random segments add a small long tail.
	if frac := float64(short) / float64(reused); frac < 0.8 {
		t.Errorf("short-reuse fraction = %v, want > 0.8 when ShortFrac=1", frac)
	}
}

func TestRegionValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"tiny stream":    func() { NewStream(0, 1, 1, 0) },
		"unaligned base": func() { NewLoop(1, mem.LineBytes, 0) },
		"bad words":      func() { NewStream(0, mem.LineBytes, 9, 0) },
		"big plane":      func() { NewStencil(0, 2*mem.LineBytes, 2*mem.LineBytes, 0) },
		"big short":      func() { NewScanReuse(0, mem.LineBytes*2, mem.LineBytes*2, 0.5, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMixWeightsRespected(t *testing.T) {
	a := NewLoop(0, 64*mem.LineBytes, 0)
	b := NewLoop(1<<30, 64*mem.LineBytes, 0)
	m := NewMix(9, 0,
		MixItem{Region: a, Weight: 3, Burst: 1},
		MixItem{Region: b, Weight: 1, Burst: 1},
	)
	fromA := 0
	const n = 40000
	accs := Collect(m, n)
	if len(accs) != n {
		t.Fatal("mix must be unbounded")
	}
	for _, acc := range accs {
		if acc.Addr < 1<<30 {
			fromA++
		}
	}
	if frac := float64(fromA) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("region A fraction = %v, want ~0.75", frac)
	}
}

func TestMixWeightsRespectedWithUnequalBursts(t *testing.T) {
	// Weight is an access-stream share regardless of burst length: a
	// region bursting 64 at weight 0.5 must still produce half the
	// accesses next to a burst-1 region at weight 0.5.
	a := NewLoop(0, 64*mem.LineBytes, 0)
	b := NewLoop(1<<30, 64*mem.LineBytes, 0)
	m := NewMix(13, 0,
		MixItem{Region: a, Weight: 0.5, Burst: 64},
		MixItem{Region: b, Weight: 0.5, Burst: 1},
	)
	fromA := 0
	const n = 200000
	for _, acc := range Collect(m, n) {
		if acc.Addr < 1<<30 {
			fromA++
		}
	}
	if frac := float64(fromA) / n; math.Abs(frac-0.5) > 0.03 {
		t.Errorf("region A access share = %v, want ~0.5 despite burst 64", frac)
	}
}

func TestMixBurstsAreContiguous(t *testing.T) {
	a := NewStream(0, mem.MB, 1, 0)
	b := NewStream(1<<30, mem.MB, 1, 0)
	m := NewMix(10, 0,
		MixItem{Region: a, Weight: 1, Burst: 8},
		MixItem{Region: b, Weight: 1, Burst: 8},
	)
	// Count switches between regions; with burst 8 over N accesses there
	// should be about N/8 switches, not N/2.
	prevA, switches := false, 0
	const n = 8000
	for i, acc := range Collect(m, n) {
		isA := acc.Addr < 1<<30
		if i > 0 && isA != prevA {
			switches++
		}
		prevA = isA
	}
	if switches > n/6 {
		t.Errorf("too many region switches for burst=8: %d", switches)
	}
}

func TestMixGapMean(t *testing.T) {
	a := NewLoop(0, 64*mem.LineBytes, 0)
	m := NewMix(11, 5, MixItem{Region: a, Weight: 1, Burst: 1})
	sum := 0.0
	const n = 20000
	for _, acc := range Collect(m, n) {
		sum += float64(acc.Gap)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.5 {
		t.Errorf("gap mean = %v, want ~5", mean)
	}
}

func TestMixValidation(t *testing.T) {
	a := NewLoop(0, 64*mem.LineBytes, 0)
	for name, f := range map[string]func(){
		"empty":       func() { NewMix(1, 0) },
		"zero weight": func() { NewMix(1, 0, MixItem{Region: a, Weight: 0, Burst: 1}) },
		"zero burst":  func() { NewMix(1, 0, MixItem{Region: a, Weight: 1, Burst: 0}) },
		"nil region":  func() { NewMix(1, 0, MixItem{Weight: 1, Burst: 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPhasedCycles(t *testing.T) {
	a := NewMix(1, 0, MixItem{Region: NewLoop(0, 64*mem.LineBytes, 0), Weight: 1, Burst: 1})
	b := NewMix(2, 0, MixItem{Region: NewLoop(1<<30, 64*mem.LineBytes, 0), Weight: 1, Burst: 1})
	p := NewPhased(Phase{Source: a, Len: 10}, Phase{Source: b, Len: 10})
	accs := Collect(p, 40)
	if len(accs) != 40 {
		t.Fatal("phased must not exhaust")
	}
	for i, acc := range accs {
		inB := acc.Addr >= 1<<30
		wantB := (i/10)%2 == 1
		if inB != wantB {
			t.Fatalf("access %d from wrong phase", i)
		}
	}
}

func TestLimitAndCollect(t *testing.T) {
	a := NewMix(1, 0, MixItem{Region: NewLoop(0, 64*mem.LineBytes, 0), Weight: 1, Burst: 1})
	s := Limit(a, 5)
	got := Collect(s, 10)
	if len(got) != 5 {
		t.Errorf("Limit(5) yielded %d accesses", len(got))
	}
	if len(Collect(s, 1)) != 0 {
		t.Error("limiter did not exhaust")
	}
}

func TestInterleaveRoundRobinAndExhaustion(t *testing.T) {
	a := Limit(NewMix(1, 0, MixItem{Region: NewLoop(0, 64*mem.LineBytes, 0), Weight: 1, Burst: 1}), 3)
	b := Limit(NewMix(2, 0, MixItem{Region: NewLoop(1<<30, 64*mem.LineBytes, 0), Weight: 1, Burst: 1}), 6)
	iv := NewInterleave(a, b)
	cores := make([]int, 16)
	k := iv.NextBatch(make([]Access, 16), cores)
	if k != 9 {
		t.Fatalf("interleave yielded %d accesses, want 9", k)
	}
	// First six alternate 0,1,...; once a is exhausted only 1 remains.
	for i := 0; i < 6; i++ {
		if cores[i] != i%2 {
			t.Errorf("access %d from core %d", i, cores[i])
		}
	}
	for i := 6; i < 9; i++ {
		if cores[i] != 1 {
			t.Errorf("tail access %d from core %d, want 1", i, cores[i])
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	f := func(raws []uint32, stores []bool, gaps []uint16) bool {
		n := len(raws)
		if len(stores) < n {
			n = len(stores)
		}
		if len(gaps) < n {
			n = len(gaps)
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
			in[i] = Access{Addr: mem.Addr(raws[i]), Store: stores[i], Gap: uint32(gaps[i])}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, a := range in {
			if err := w.Write(a); err != nil {
				return false
			}
		}
		if w.Flush() != nil || w.Count() != uint64(n) {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		return slices.Equal(Collect(r, n+1), in) && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX----"))); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(Access{Addr: 0x12345678})
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-1] // cut the final byte
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(Collect(r, 1)) != 0 {
		t.Error("truncated record decoded")
	}
	if r.Err() == nil {
		t.Error("truncation not reported")
	}
}

// TestReaderEndsAtCorruption: an overflowing varint ends the stream even
// with a well-formed record behind it, and the stream stays ended.
func TestReaderEndsAtCorruption(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.Write(Access{Addr: 64})
	_ = w.Flush()
	buf.Write(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64))
	buf.Write([]byte{0x02, 0x00})
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Collect(r, 4)); n != 1 || r.Err() == nil {
		t.Errorf("decoded %d accesses with err %v, want 1 and an overflow", n, r.Err())
	}
	if n := len(Collect(r, 4)); n != 0 {
		t.Errorf("reader resumed after a corrupt record with %d accesses", n)
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if unzigzag(zigzag(v)) != v {
			t.Errorf("zigzag round-trip failed for %d", v)
		}
	}
}

// bernoulliGap is the reference gap draw: failed Bool(p) trials before the
// first success, capped at 1000.
func bernoulliGap(r *RNG, p float64) uint32 {
	g := 0
	for !r.Bool(p) && g < 1000 {
		g++
	}
	return uint32(g)
}

// TestGapMatchesBernoulliReference requires Mix's integer-threshold gap
// loop to draw the reference's gaps and leave the RNG where it does, over
// mean gaps from none to one that mostly hits the 1000 cap.
func TestGapMatchesBernoulliReference(t *testing.T) {
	for _, mean := range []float64{0, 0.5, 8, 12, 5000} {
		for seed := uint64(1); seed <= 4; seed++ {
			m := NewMix(seed, mean, MixItem{Region: NewLoop(0, 64*mem.LineBytes, 0), Weight: 1, Burst: 1})
			ref := NewRNG(seed)
			capped := 0
			for i := 0; i < 3000; i++ {
				var want uint32
				if mean > 0 {
					want = bernoulliGap(ref, m.gapP)
				}
				if got := m.gap(); got != want || m.rng.s != ref.s {
					t.Fatalf("mean %v seed %d draw %d: gap %d state %#x, reference %d %#x",
						mean, seed, i, got, m.rng.s, want, ref.s)
				}
				if want == 1000 {
					capped++
				}
			}
			if mean == 5000 && capped == 0 {
				t.Errorf("seed %d: mean 5000 never reached the cap", seed)
			}
		}
	}
}

// TestBoolThreshold checks the integer form of Bool at the threshold and
// one either side of it, for probabilities at and between the edges.
func TestBoolThreshold(t *testing.T) {
	const scale = 1 << 53
	for _, p := range []float64{-1, 0, 0x1p-53, 0x1.8p-53, 1.0 / 3, 0.5, 1.0 / 9, 1.0 / 13,
		math.Nextafter(1, 0), 1, 2, math.NaN(), math.Inf(1)} {
		k := boolThreshold(p)
		for _, x := range []uint64{0, 1, k - 1, k, k + 1, scale - 1} {
			if x >= scale {
				continue
			}
			if got, want := x < k, float64(x)/scale < p; got != want {
				t.Errorf("p=%v k=%d: x=%d draws %v, Bool draws %v", p, k, x, got, want)
			}
		}
	}
}

// perAccessInterleave is the reference round robin: one single-access
// NextBatch call per merged access, skipping sources that have ended.
type perAccessInterleave struct {
	srcs []Source
	next int
}

func (iv *perAccessInterleave) NextBatch(dst []Access, cores []int) int {
next:
	for i := range dst {
		for range iv.srcs {
			c := iv.next
			iv.next = (iv.next + 1) % len(iv.srcs)
			if iv.srcs[c].NextBatch(dst[i:i+1]) == 1 {
				cores[i] = c
				continue next
			}
		}
		return i
	}
	return len(dst)
}

// TestInterleaveMatchesPerAccessReference merges 2 to 4 sources of
// unequal lengths, 0 and 1 among them, at batch sizes from 5000 down to 1,
// and requires the lane merge to return the reference's counts, accesses
// and core tags call by call. Each batch size runs on a fresh Interleave,
// whose lanes it sizes, and on one reused through Reset, as a pooled
// merger is, whose lanes the first, largest batch sized.
func TestInterleaveMatchesPerAccessReference(t *testing.T) {
	sources := func(lens []int) []Source {
		srcs := make([]Source, len(lens))
		for c, n := range lens {
			region := NewRandom(mem.Addr(c+1)<<32, 64*mem.KB, 0.3)
			srcs[c] = Limit(NewMix(uint64(c+1), 4, MixItem{Region: region, Weight: 1, Burst: 3}), uint64(n))
		}
		return srcs
	}
	check := func(iv *Interleave, lens []int, batch int) {
		t.Helper()
		ref := &perAccessInterleave{srcs: sources(lens)}
		got, want := make([]Access, batch), make([]Access, batch)
		gotCores, wantCores := make([]int, batch), make([]int, batch)
		for call := 0; ; call++ {
			k, wk := iv.NextBatch(got, gotCores), ref.NextBatch(want, wantCores)
			if k != wk || !slices.Equal(got[:k], want[:k]) || !slices.Equal(gotCores[:k], wantCores[:k]) {
				t.Fatalf("lengths %v batch %d call %d: %d accesses, reference %d, or their accesses or cores differ",
					lens, batch, call, k, wk)
			}
			if k < batch {
				break
			}
		}
		if k := iv.NextBatch(got, gotCores); k != 0 {
			t.Errorf("lengths %v batch %d: %d accesses after the end", lens, batch, k)
		}
	}
	for _, lens := range [][]int{{0, 5000}, {1, 9000}, {4096, 4097}, {9000, 0, 1}, {3000, 7000, 5000}, {1, 1, 0, 6000}, {2500, 2500, 2500, 2500}} {
		reused := NewInterleave(sources(lens)...)
		for _, batch := range []int{5000, 4096, 1000, 64, 3, 1} {
			check(NewInterleave(sources(lens)...), lens, batch)
			reused.Reset(sources(lens)...)
			check(reused, lens, batch)
		}
	}
}
