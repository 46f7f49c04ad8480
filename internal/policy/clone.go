package policy

// Clone support: every Driver can produce an independent deep copy of its
// mutable state, so a warm hierarchy snapshot carries its policy bookkeeping
// along. Stateless drivers return fresh instances; stateful ones duplicate
// their RNG cursor or counters.

// Clone implements Driver.
func (*Baseline) Clone() Driver { return &Baseline{} }

// Clone implements Driver.
func (*NuRAPID) Clone() Driver { return &NuRAPID{} }

// Clone implements Driver: every group's RNG cursor is copied so the clone
// draws the same sequences the original would have.
func (p *LRUPEA) Clone() Driver {
	c := &LRUPEA{}
	for g, r := range p.rngs {
		rng := *r
		c.rngs[g] = &rng
	}
	return c
}

// Clone implements Driver: the insertion-class counters are carried over;
// the lazy lookup tables are deliberately dropped (tabLevel stays nil) so
// the clone rebuilds them — and its displacement-chain scratch — against
// whichever Level it is first driven with, keeping clones free of shared
// scratch state across goroutines. The tables are pure functions of the
// enumeration and level geometry, so rebuilding cannot change behaviour.
func (s *SLIP) Clone() Driver {
	return &SLIP{
		slips:         s.slips,
		level:         s.level,
		numSub:        s.numSub,
		InsertClasses: s.InsertClasses,
	}
}
