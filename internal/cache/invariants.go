package cache

import "fmt"

// CheckInvariants verifies the level's redundant structures against its
// lines and returns the first inconsistency found: every valid line sits
// in its own set under its current fingerprint, the valid and demoted
// masks mirror the lines' flags, no address is resident twice in a set,
// and each LRU recency word is a permutation of the set's ways. It is a
// test aid; nothing on the simulation path calls it.
func (l *Level) CheckInvariants() error {
	for set := 0; set < l.numSets; set++ {
		var valid, demoted WayMask
		for w := 0; w < l.ways; w++ {
			ln := l.LineAt(set, w)
			if !ln.Valid {
				continue
			}
			valid |= 1 << w
			demoted |= boolMask(ln.Demoted, w)
			if got := l.SetOf(ln.Addr); got != set {
				return fmt.Errorf("cache %s: line %#x at set %d way %d belongs to set %d", l.name, uint64(ln.Addr), set, w, got)
			}
			if fp, want := l.fp[set*l.fpStride+w], l.fingerprint(ln.Addr); fp != want {
				return fmt.Errorf("cache %s: set %d way %d fingerprint %#x, want %#x", l.name, set, w, fp, want)
			}
			for v := w + 1; v < l.ways; v++ {
				if o := l.LineAt(set, v); o.Valid && o.Addr == ln.Addr {
					return fmt.Errorf("cache %s: line %#x resident in set %d ways %d and %d", l.name, uint64(ln.Addr), set, w, v)
				}
			}
		}
		if l.valid[set] != valid {
			return fmt.Errorf("cache %s: set %d valid mask %v, lines say %v", l.name, set, l.valid[set], valid)
		}
		if l.demoted[set] != demoted {
			return fmt.Errorf("cache %s: set %d demoted mask %v, lines say %v", l.name, set, l.demoted[set], demoted)
		}
		if r, ok := l.repl.(*lru); ok {
			if err := r.checkOrder(set); err != nil {
				return fmt.Errorf("cache %s: %w", l.name, err)
			}
		}
	}
	return nil
}

// checkOrder verifies that set's recency word lists every way exactly
// once in its low ranks and nothing above them.
func (l *lru) checkOrder(set int) error {
	x := l.order[set]
	var seen uint32
	for r := 0; r < l.ways; r++ {
		seen |= 1 << (x >> (4 * r) & 0xF)
	}
	if seen != uint32(FullMask(l.ways)) || (l.ways < maxLRUWays && x>>(4*l.ways) != 0) {
		return fmt.Errorf("set %d recency word %#016x is not a permutation of %d ways", set, x, l.ways)
	}
	return nil
}
