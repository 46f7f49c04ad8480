package mmu

import (
	"fmt"

	"repro/internal/core"
)

// CheckInvariants verifies the TLB's redundant structures against its
// slots and the page table and returns the first inconsistency found:
// every live slot is found through the index and every index entry names
// a live slot, so no page sits in two slots; the LRU list runs from head
// to tail through each live slot exactly once, its prev and next links
// agreeing; each slot's PTE is the page table's entry for its page; and no
// PTE holds staged evidence, as at rest between runs. It is a test aid;
// nothing on the simulation path calls it.
func (m *MMU) CheckInvariants() error {
	n := len(m.tlbPages)
	if len(m.tlbPTEs) != n || n > m.cfg.TLBEntries {
		return fmt.Errorf("mmu: %d pages and %d PTEs in a %d-entry TLB", n, len(m.tlbPTEs), m.cfg.TLBEntries)
	}
	entries := 0
	for i, e := range m.index {
		if e == 0 {
			continue
		}
		if e < 0 || int(e) > n {
			return fmt.Errorf("mmu: index entry %d names slot %d of %d", i, e-1, n)
		}
		entries++
	}
	if entries != n {
		return fmt.Errorf("mmu: %d index entries for %d live slots", entries, n)
	}
	for s, p := range m.tlbPages {
		if got := m.slotOf(p); got != int32(s) {
			return fmt.Errorf("mmu: page %d of slot %d found in slot %d through the index", p, s, got)
		}
		if pte := m.pages[p]; pte == nil || pte != m.tlbPTEs[s] {
			return fmt.Errorf("mmu: slot %d holds a PTE that is not the page table's entry for page %d", s, p)
		}
	}
	seen := make([]bool, n)
	prev, visits := int32(-1), 0
	for s := m.head; s >= 0; prev, s = s, m.next[s] {
		if int(s) >= n || seen[s] {
			return fmt.Errorf("mmu: LRU list revisits or leaves the %d live slots at slot %d", n, s)
		}
		if m.prev[s] != prev {
			return fmt.Errorf("mmu: slot %d links back to %d, want %d", s, m.prev[s], prev)
		}
		seen[s] = true
		visits++
	}
	if visits != n || m.tail != prev {
		return fmt.Errorf("mmu: LRU list visits %d of %d slots and ends at %d, tail is %d", visits, n, prev, m.tail)
	}
	for p, pte := range m.pages {
		if pte.PendDirty || pte.Pend != [2][core.NumBins]uint16{} {
			return fmt.Errorf("mmu: page %d holds staged evidence at rest", p)
		}
	}
	return nil
}
