// Package cache implements the set-associative cache level with
// energy-asymmetric ways that every policy in this repository (baseline LRU,
// SLIP, NuRAPID, LRU-PEA) runs against. The level provides mechanism only —
// probes, fills, intra-set movements, victim selection within a way mask and
// per-event energy accounting (the Section 4.3 movement-queue lookup
// included) — while the insertion/movement *policies* live in
// internal/policy.
package cache

import (
	"fmt"
	"math/bits"
)

// WayMask selects a subset of a set's ways (bit w = way w). Chunks and
// sublevels are represented as way masks when talking to the level.
type WayMask uint32

// FullMask returns a mask of ways [0, n).
func FullMask(n int) WayMask {
	if n <= 0 || n > 32 {
		panic(fmt.Sprintf("cache: way count %d out of range", n))
	}
	if n == 32 {
		return ^WayMask(0)
	}
	return WayMask(1)<<n - 1
}

// RangeMask returns a mask of ways [first, last].
func RangeMask(first, last int) WayMask {
	if first < 0 || last < first || last >= 32 {
		panic(fmt.Sprintf("cache: invalid way range [%d,%d]", first, last))
	}
	return (WayMask(1)<<(last-first+1) - 1) << first
}

// Has reports whether way w is in the mask.
func (m WayMask) Has(w int) bool { return m&(1<<w) != 0 }

// Count returns the number of ways selected.
func (m WayMask) Count() int { return bits.OnesCount32(uint32(m)) }

// Ways lists the selected ways in ascending order.
func (m WayMask) Ways() []int {
	out := make([]int, 0, m.Count())
	for v := uint32(m); v != 0; v &= v - 1 {
		out = append(out, bits.TrailingZeros32(v))
	}
	return out
}

// String renders the mask as a way list.
func (m WayMask) String() string { return fmt.Sprintf("ways%v", m.Ways()) }
