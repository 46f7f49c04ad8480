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

// maxLRUWays is the widest set the packed recency word can order: one
// 4-bit way index per rank in a uint64.
const maxLRUWays = 16

// Nibble-broadcast constants for the SWAR zero-nibble test.
const (
	nibbleOnes = 0x1111111111111111
	nibbleHigh = 0x8888888888888888
)

// lru is the true-LRU policy the paper evaluates with. Each set keeps its
// recency order as one packed word: nibble r holds the way at rank r, rank
// 0 least recent. A touch splices the way's nibble to the top rank; the
// victim is the lowest-ranked way in the mask. Never-touched ways keep
// their initial ascending order at the bottom, so they are chosen first,
// lowest index first. State is per set, so a set's order evolves
// identically whether or not other sets are masked off by set sampling.
type lru struct {
	order []uint64
	ways  int
}

// NewLRU builds true-LRU state for sets x ways lines. It panics beyond
// 16 ways, the width of the packed recency word.
func NewLRU(sets, ways int) Repl {
	if ways < 1 || ways > maxLRUWays {
		panic(fmt.Sprintf("cache: LRU way count %d out of range [1,%d]", ways, maxLRUWays))
	}
	var identity uint64
	for r := 0; r < ways; r++ {
		identity |= uint64(r) << (4 * r)
	}
	l := &lru{order: make([]uint64, sets), ways: ways}
	for i := range l.order {
		l.order[i] = identity
	}
	return l
}

// Name implements Repl.
func (l *lru) Name() string { return "lru" }

// touch moves way to the most-recent rank of set's order. The way's rank
// is the lowest zero nibble of order^broadcast(way) (the SWAR zero test
// is exact for the lowest zero); the nibbles above it shift down one rank
// and the way lands on top. Nibbles above the top rank stay zero.
func (l *lru) touch(set, way int) {
	x := l.order[set]
	y := x ^ uint64(way)*nibbleOnes
	shift := uint(bits.TrailingZeros64((y-nibbleOnes)&^y&nibbleHigh)) &^ 3
	below := uint64(1)<<shift - 1
	top := uint(4 * (l.ways - 1))
	x = x&below | (x>>4)&^below
	l.order[set] = x&^(0xF<<top) | uint64(way)<<top
}

// OnHit implements Repl.
func (l *lru) OnHit(set, way int) { l.touch(set, way) }

// OnFill implements Repl.
func (l *lru) OnFill(set, way int) { l.touch(set, way) }

// Victim implements Repl: the lowest-ranked way in mask. A full mask
// returns rank 0 at once.
func (l *lru) Victim(set int, mask WayMask) int {
	x := l.order[set]
	for r := 0; r < l.ways; r++ {
		if w := int(x & 0xF); mask.Has(w) {
			return w
		}
		x >>= 4
	}
	panic("cache: Victim called with empty mask")
}

// rrip is the SRRIP policy of Jaleel et al., adapted to masked victim
// selection as Section 7 describes: re-reference prediction values (RRPV)
// per line; victims are lines with the maximum RRPV inside the mask, aging
// the masked lines when none qualifies.
type rrip struct {
	rrpv []uint8 // rrpv[set*ways+way]
	ways int
	max  uint8
}

// NewRRIP builds an M-bit SRRIP policy (M=2 gives RRPVs 0..3).
func NewRRIP(sets, ways int, mbits uint) Repl {
	if mbits < 1 || mbits > 4 {
		panic(fmt.Sprintf("cache: RRIP width %d out of range", mbits))
	}
	r := &rrip{ways: ways, max: uint8(1<<mbits - 1)}
	r.rrpv = make([]uint8, sets*ways)
	for i := range r.rrpv {
		r.rrpv[i] = r.max
	}
	return r
}

// Name implements Repl.
func (r *rrip) Name() string { return "rrip" }

// OnHit implements Repl: hit promotion to RRPV 0.
func (r *rrip) OnHit(set, way int) { r.rrpv[set*r.ways+way] = 0 }

// OnFill implements Repl: insert with long re-reference interval (max-1).
func (r *rrip) OnFill(set, way int) { r.rrpv[set*r.ways+way] = r.max - 1 }

// Victim implements Repl.
func (r *rrip) Victim(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: Victim called with empty mask")
	}
	row := r.rrpv[set*r.ways : (set+1)*r.ways]
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
