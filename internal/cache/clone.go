package cache

import "unsafe"

// Clone returns a deep copy of the level: lines, fingerprint/valid/demoted
// arrays, replacement state and statistics are all duplicated so the copy
// can be driven independently (and concurrently) of the original. The
// immutable pieces — Config, energy params, the sublevel masks and the
// reuse-distance estimator, none of which mutate after New — are shared.
// This is the primitive behind warm-state snapshots: capture a level once
// after warmup, then hand each measured run its own copy.
func (l *Level) Clone() *Level {
	c := *l
	c.lines = append([]Line(nil), l.lines...)
	c.fp = append([]uint8(nil), l.fp...)
	c.valid = append([]WayMask(nil), l.valid...)
	c.demoted = append([]WayMask(nil), l.demoted...)
	c.repl = l.repl.Clone()
	c.Stats.HitsPerSublevel = append([]uint64(nil), l.Stats.HitsPerSublevel...)
	return &c
}

// SizeBytes returns the retained footprint of a cloned level — every array
// the clone copies, at its real length — charged by byte-budgeted snapshot
// caches.
func (l *Level) SizeBytes() int {
	n := int(unsafe.Sizeof(*l)) +
		len(l.lines)*int(unsafe.Sizeof(Line{})) +
		len(l.fp) +
		(len(l.valid)+len(l.demoted))*int(unsafe.Sizeof(WayMask(0))) +
		len(l.Stats.HitsPerSublevel)*8
	switch r := l.repl.(type) {
	case *lru:
		n += int(unsafe.Sizeof(*r)) + len(r.order)*8
	case *rrip:
		n += int(unsafe.Sizeof(*r)) + len(r.rrpv)
	}
	return n
}

// Clone implements Repl.
func (l *lru) Clone() Repl {
	return &lru{order: append([]uint64(nil), l.order...), ways: l.ways}
}

// Clone implements Repl.
func (r *rrip) Clone() Repl {
	return &rrip{rrpv: append([]uint8(nil), r.rrpv...), ways: r.ways, max: r.max}
}
