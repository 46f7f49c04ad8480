package cache

import (
	"testing"
)

func TestLRUVictimIsLeastRecent(t *testing.T) {
	r := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w)
	}
	r.OnHit(0, 0) // way 0 most recent; way 1 now least recent
	if v := r.Victim(0, FullMask(4)); v != 1 {
		t.Errorf("victim = %d, want 1", v)
	}
}

func TestLRURespectsMask(t *testing.T) {
	r := NewLRU(1, 4)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w)
	}
	// Way 0 is globally LRU, but the mask excludes it.
	if v := r.Victim(0, RangeMask(2, 3)); v != 2 {
		t.Errorf("victim = %d, want 2", v)
	}
}

func TestLRUPerSetIndependence(t *testing.T) {
	r := NewLRU(2, 2)
	r.OnFill(0, 0)
	r.OnFill(0, 1)
	r.OnFill(1, 1)
	r.OnFill(1, 0)
	if v := r.Victim(0, FullMask(2)); v != 0 {
		t.Errorf("set 0 victim = %d, want 0", v)
	}
	if v := r.Victim(1, FullMask(2)); v != 1 {
		t.Errorf("set 1 victim = %d, want 1", v)
	}
}

func TestLRUEmptyMaskPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("empty mask did not panic")
		}
	}()
	NewLRU(1, 2).Victim(0, 0)
}

func TestRRIPHitPromotionAndVictim(t *testing.T) {
	r := NewRRIP(1, 4, 2)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w) // RRPV = 2
	}
	r.OnHit(0, 3) // RRPV(3) = 0
	// First victim requires aging: ways 0..2 reach 3 first; way 0 picked.
	if v := r.Victim(0, FullMask(4)); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestRRIPMaskedAging(t *testing.T) {
	r := NewRRIP(1, 4, 2)
	for w := 0; w < 4; w++ {
		r.OnFill(0, w)
	}
	r.OnHit(0, 0)
	r.OnHit(0, 1)
	// Victim restricted to {0,1}: both at RRPV 0, so the policy must age
	// within the mask and pick way 0; ways 2,3 outside stay at RRPV 2.
	if v := r.Victim(0, RangeMask(0, 1)); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestRRIPWidthValidation(t *testing.T) {
	for _, m := range []uint{0, 5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RRIP width %d did not panic", m)
				}
			}()
			NewRRIP(1, 2, m)
		}()
	}
}

func TestReplNames(t *testing.T) {
	if NewLRU(1, 1).Name() != "lru" || NewRRIP(1, 1, 2).Name() != "rrip" {
		t.Error("names wrong")
	}
}

// stampLRU is the per-line-stamp true LRU the packed recency word
// replaced, kept as the reference it must agree with: each touch stamps
// the way from its group's monotone clock, and the victim is the smallest
// stamp in the mask, ties (never-touched ways, stamp 0) to the lowest way.
type stampLRU struct {
	stamp [][]uint64
	clock [NumGroups]uint64
}

func newStampLRU(sets, ways int) *stampLRU {
	s := &stampLRU{stamp: make([][]uint64, sets)}
	for i := range s.stamp {
		s.stamp[i] = make([]uint64, ways)
	}
	return s
}

func (s *stampLRU) touch(set, way int) {
	g := GroupOf(set)
	s.clock[g]++
	s.stamp[set][way] = s.clock[g]
}

func (s *stampLRU) victim(set int, mask WayMask) int {
	best, bestStamp := -1, ^uint64(0)
	for _, w := range mask.Ways() {
		if st := s.stamp[set][w]; best == -1 || st < bestStamp {
			best, bestStamp = w, st
		}
	}
	return best
}

// TestLRUMatchesStampReference drives the packed LRU and the stamp
// reference with the same random hits, fills and masked victim queries —
// from the first, never-touched state on, with full and partial masks —
// and requires every victim to agree.
func TestLRUMatchesStampReference(t *testing.T) {
	x := uint64(7)
	rnd := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x>>33) % n
	}
	for _, ways := range []int{1, 3, 8, 12, 16} {
		const sets = 128
		got, ref := NewLRU(sets, ways), newStampLRU(sets, ways)
		full := FullMask(ways)
		for step := 0; step < 50_000; step++ {
			set := rnd(sets)
			switch op := rnd(4); {
			case op == 0:
				w := rnd(ways)
				got.OnHit(set, w)
				ref.touch(set, w)
			case op == 1:
				w := rnd(ways)
				got.OnFill(set, w)
				ref.touch(set, w)
			default:
				mask := full
				if op == 3 {
					mask = WayMask(rnd(1<<ways-1) + 1)
				}
				if g, r := got.Victim(set, mask), ref.victim(set, mask); g != r {
					t.Fatalf("%d ways, step %d: set %d mask %v: victim %d, reference %d", ways, step, set, mask, g, r)
				}
			}
		}
		if err := got.(*lru).checkOrder(0); err != nil {
			t.Errorf("%d ways: %v", ways, err)
		}
	}
}

func TestLRURejectsWideSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("17-way LRU did not panic")
		}
	}()
	NewLRU(1, 17)
}
