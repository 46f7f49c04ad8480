package reuse

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// naiveStackDistance is an O(n^2) reference implementation.
func naiveStackDistance(stream []mem.LineAddr) []uint64 {
	out := make([]uint64, len(stream))
	for i, l := range stream {
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if stream[j] == l {
				prev = j
				break
			}
		}
		if prev < 0 {
			out[i] = Infinite
			continue
		}
		seen := map[mem.LineAddr]bool{}
		for j := prev + 1; j < i; j++ {
			seen[stream[j]] = true
		}
		out[i] = uint64(len(seen))
	}
	return out
}

func TestObserveSimpleSequences(t *testing.T) {
	c := NewCalculator(4)
	// A B C A: distance of second A is 2 (B and C in between).
	seq := []mem.LineAddr{1, 2, 3, 1}
	want := []uint64{Infinite, Infinite, Infinite, 2}
	for i, l := range seq {
		if d := c.Observe(l); d != want[i] {
			t.Errorf("step %d: d = %d, want %d", i, d, want[i])
		}
	}
}

func TestImmediateReuseIsZero(t *testing.T) {
	c := NewCalculator(4)
	c.Observe(7)
	if d := c.Observe(7); d != 0 {
		t.Errorf("immediate reuse distance = %d, want 0", d)
	}
}

func TestDuplicatesNotDoubleCounted(t *testing.T) {
	c := NewCalculator(8)
	// A B B B A: only one distinct line between the two As.
	for _, l := range []mem.LineAddr{1, 2, 2, 2} {
		c.Observe(l)
	}
	if d := c.Observe(1); d != 1 {
		t.Errorf("d = %d, want 1 (duplicates must collapse)", d)
	}
}

func TestMatchesNaiveOnRandomStreams(t *testing.T) {
	f := func(raw []uint8) bool {
		stream := make([]mem.LineAddr, len(raw))
		for i, b := range raw {
			stream[i] = mem.LineAddr(b % 16)
		}
		want := naiveStackDistance(stream)
		c := NewCalculator(2) // tiny, to exercise growth
		for i, l := range stream {
			if d := c.Observe(l); d != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCyclicWorkingSetDistance(t *testing.T) {
	// Looping over W distinct lines gives every reuse distance W-1.
	const W = 50
	c := NewCalculator(4)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < W; i++ {
			d := c.Observe(mem.LineAddr(i))
			if pass == 0 {
				if d != Infinite {
					t.Fatalf("first pass line %d: d = %d", i, d)
				}
			} else if d != W-1 {
				t.Fatalf("pass %d line %d: d = %d, want %d", pass, i, d, W-1)
			}
		}
	}
	if c.Distinct() != W {
		t.Errorf("Distinct = %d, want %d", c.Distinct(), W)
	}
}

func TestGrowthPreservesState(t *testing.T) {
	c := NewCalculator(2)
	const n = 1000
	for i := 0; i < n; i++ {
		c.Observe(mem.LineAddr(i))
	}
	// All n lines are live marks; reusing line 0 must see n-1 distinct lines.
	if d := c.Observe(0); d != n-1 {
		t.Errorf("after growth: d = %d, want %d", d, n-1)
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram([]uint64{1024, 2048, 4096})
	h.Observe(0)
	h.Observe(1023)
	h.Observe(1024)
	h.Observe(4095)
	h.Observe(4096)
	h.Observe(Infinite)
	want := []uint64{2, 1, 1, 2}
	for i, w := range want {
		if h.Bins[i] != w {
			t.Errorf("bin %d = %d, want %d", i, h.Bins[i], w)
		}
	}
	fr := h.Fractions()
	if fr[0] != 2.0/6.0 {
		t.Errorf("fraction[0] = %v", fr[0])
	}
}

func TestHistogramEmptyAndBadBounds(t *testing.T) {
	h := NewHistogram([]uint64{10})
	for _, f := range h.Fractions() {
		if f != 0 {
			t.Error("empty histogram fraction nonzero")
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("descending bounds did not panic")
		}
	}()
	NewHistogram([]uint64{10, 5})
}

// TestResetMatchesFresh checks that a reset calculator, whose tables
// keep their grown size, measures a new stream — growing again past that
// size — exactly as a fresh one does.
func TestResetMatchesFresh(t *testing.T) {
	c := NewCalculator(2)
	for i := 0; i < 40; i++ {
		c.Observe(mem.LineAddr(i % 7))
	}
	c.reset()
	stream := make([]mem.LineAddr, 200)
	for i := range stream {
		stream[i] = mem.LineAddr(i * i % 13)
	}
	for i, want := range naiveStackDistance(stream) {
		if d := c.Observe(stream[i]); d != want {
			t.Fatalf("access %d after reset: d = %d, want %d", i, d, want)
		}
	}
}

// TestWindowedEpochsMatchFreshCalculators checks that resetting the
// calculator in place at each epoch boundary gives the distances a fresh
// calculator per epoch gives, and that later epochs allocate nothing.
func TestWindowedEpochsMatchFreshCalculators(t *testing.T) {
	const window = 64
	w := NewWindowed(window)
	var ref *Calculator
	x := uint64(1)
	next := func() mem.LineAddr {
		x = x*6364136223846793005 + 1442695040888963407
		return mem.LineAddr(x >> 58) // 64 distinct lines
	}
	for i := 0; i < 5*window; i++ {
		if i%window == 0 {
			ref = NewCalculator(window)
		}
		l := next()
		if got, want := w.Observe(l), ref.Observe(l); got != want {
			t.Fatalf("access %d: windowed distance %d, fresh calculator %d", i, got, want)
		}
	}
	if avg := testing.AllocsPerRun(4, func() {
		for i := 0; i < window; i++ {
			w.Observe(next())
		}
	}); avg != 0 {
		t.Errorf("an epoch allocates %.1f times, want 0", avg)
	}
}
