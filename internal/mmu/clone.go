package mmu

import (
	"slices"
	"unsafe"

	"repro/internal/mem"
)

// Clone returns a deep copy of the MMU: the page table, the TLB arrays and
// the RNG cursor are all duplicated so the copy evolves independently. PTE
// pointer aliasing is preserved — a TLB slot in the clone points at the
// clone's copy of the same page entry, never at the original's — which is
// what makes a cloned system bit-identical to the original under further
// simulation.
func (m *MMU) Clone() *MMU {
	c := &MMU{
		cfg:       m.cfg,
		head:      m.head,
		tail:      m.tail,
		shift:     m.shift,
		pStable:   m.pStable,
		pSampling: m.pSampling,
		Stats:     m.Stats,
	}
	rng := *m.rng
	c.rng = &rng
	c.pages = make(map[mem.PageID]*PTE, len(m.pages))
	flat := make([]PTE, 0, len(m.pages))
	for p, pte := range m.pages {
		flat = append(flat, *pte)
		c.pages[p] = &flat[len(flat)-1]
	}
	c.tlbPages = append(make([]mem.PageID, 0, cap(m.tlbPages)), m.tlbPages...)
	c.tlbPTEs = make([]*PTE, len(m.tlbPTEs), cap(m.tlbPTEs))
	for i, p := range m.tlbPages {
		pte, ok := c.pages[p]
		if !ok {
			panic("mmu: TLB entry names a page missing from the page table")
		}
		c.tlbPTEs[i] = pte
	}
	c.prev = slices.Clone(m.prev)
	c.next = slices.Clone(m.next)
	c.index = slices.Clone(m.index)
	return c
}

// Bounds on what a clone's page table costs: per page, its PTE in the
// flat array with up to a quarter more for allocation rounding, and its
// map slot, a 16-byte key and value and a control byte at a load as low
// as 7/16 after the map grows; in all, the map's header and first group,
// which a one-page map already holds.
const (
	pageBytes    = int(unsafe.Sizeof(PTE{}))*5/4 + 40
	mapBaseBytes = 512
)

// SizeBytes reports the retained footprint of a cloned MMU for
// byte-budgeted snapshot caches, from the arrays a clone holds: the page
// table's map and flat PTE array, and the TLB's slots, links and index. It
// is never below what a clone retains (TestSizeBytesCoversClone).
func (m *MMU) SizeBytes() int {
	return int(unsafe.Sizeof(*m)+unsafe.Sizeof(*m.rng)) +
		mapBaseBytes + len(m.pages)*pageBytes +
		cap(m.tlbPages)*int(unsafe.Sizeof(mem.PageID(0))) +
		cap(m.tlbPTEs)*int(unsafe.Sizeof((*PTE)(nil))) +
		(len(m.prev)+len(m.next)+len(m.index))*int(unsafe.Sizeof(int32(0)))
}
