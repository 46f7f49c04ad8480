package cache

import (
	"fmt"
	"math/bits"
)

// Repl chooses victims within a set, restricted to a way mask — the form of
// replacement SLIP needs (Section 7): a victim from any subset of ways.
// Implementations carry their own per-line state.
type Repl interface {
	// Name identifies the policy in reports.
	Name() string
	// OnHit updates recency state for a hit at (set, way).
	OnHit(set, way int)
	// OnFill updates state when a line is installed at (set, way).
	OnFill(set, way int)
	// Victim picks the replacement way within mask for the set. The caller
	// guarantees the mask is non-empty and all candidate ways hold valid
	// lines (invalid ways are filled first by the level).
	Victim(set int, mask WayMask) int
	// Clone returns an independent deep copy of the policy state, used when
	// snapshotting a level for warm-state reuse.
	Clone() Repl
}

// lru is the true-LRU policy the paper evaluates with: a per-line clock
// stamp; the victim is the least recently touched way in the mask. The
// clock is kept per line-address group, like the level's other per-group
// state: Victim only ever compares stamps within one set, and one set's
// stamps all come from its own group's monotone clock, so victim choices
// are identical to a single global clock.
type lru struct {
	stamp [][]uint64
	clock [NumGroups]uint64
}

// NewLRU builds true-LRU state for sets x ways lines.
func NewLRU(sets, ways int) Repl {
	s := make([][]uint64, sets)
	for i := range s {
		s[i] = make([]uint64, ways)
	}
	return &lru{stamp: s}
}

// Name implements Repl.
func (l *lru) Name() string { return "lru" }

// OnHit implements Repl.
func (l *lru) OnHit(set, way int) {
	g := GroupOf(set)
	l.clock[g]++
	l.stamp[set][way] = l.clock[g]
}

// OnFill implements Repl.
func (l *lru) OnFill(set, way int) {
	g := GroupOf(set)
	l.clock[g]++
	l.stamp[set][way] = l.clock[g]
}

// Victim implements Repl.
func (l *lru) Victim(set int, mask WayMask) int {
	best, bestStamp := -1, ^uint64(0)
	// Ascending bit iteration picks the lowest eligible way on stamp ties,
	// so untouched masks victimize deterministically. Walking set bits
	// directly keeps this allocation-free and skips unmasked ways entirely
	// on the per-miss hot path.
	row := l.stamp[set]
	for v := uint32(mask); v != 0; v &= v - 1 {
		w := bits.TrailingZeros32(v)
		if s := row[w]; best == -1 || s < bestStamp {
			best, bestStamp = w, s
		}
	}
	if best < 0 {
		panic("cache: Victim called with empty mask")
	}
	return best
}

// rrip is the SRRIP policy of Jaleel et al., adapted to masked victim
// selection as Section 7 describes: re-reference prediction values (RRPV)
// per line; victims are lines with the maximum RRPV inside the mask, aging
// the masked lines when none qualifies.
type rrip struct {
	rrpv [][]uint8
	max  uint8
}

// NewRRIP builds an M-bit SRRIP policy (M=2 gives RRPVs 0..3).
func NewRRIP(sets, ways int, mbits uint) Repl {
	if mbits < 1 || mbits > 4 {
		panic(fmt.Sprintf("cache: RRIP width %d out of range", mbits))
	}
	r := &rrip{max: uint8(1<<mbits - 1)}
	r.rrpv = make([][]uint8, sets)
	for i := range r.rrpv {
		row := make([]uint8, ways)
		for j := range row {
			row[j] = r.max
		}
		r.rrpv[i] = row
	}
	return r
}

// Name implements Repl.
func (r *rrip) Name() string { return "rrip" }

// OnHit implements Repl: hit promotion to RRPV 0.
func (r *rrip) OnHit(set, way int) { r.rrpv[set][way] = 0 }

// OnFill implements Repl: insert with long re-reference interval (max-1).
func (r *rrip) OnFill(set, way int) { r.rrpv[set][way] = r.max - 1 }

// Victim implements Repl.
func (r *rrip) Victim(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: Victim called with empty mask")
	}
	row := r.rrpv[set]
	for {
		for v := uint32(mask); v != 0; v &= v - 1 {
			if w := bits.TrailingZeros32(v); row[w] == r.max {
				return w
			}
		}
		// Age only the masked ways; unmasked sublevels keep their own
		// recency state, preserving per-sublevel scan resistance.
		for v := uint32(mask); v != 0; v &= v - 1 {
			row[bits.TrailingZeros32(v)]++
		}
	}
}
