// Package reuse computes exact LRU stack distances (reuse distances) of an
// address stream. It is the offline analogue of the paper's online
// timestamp-based profiler, used to calibrate workload generators, to
// reproduce the Figure 3 distributions, and to cross-check the hardware
// approximation in internal/core.
//
// The implementation is the classic Fenwick-tree algorithm: each access is
// assigned a time slot; a mark is kept on the most recent access of each
// distinct line; the stack distance of a reuse is the number of marks after
// the line's previous slot.
package reuse

import (
	"repro/internal/mem"
)

// Infinite is returned for a line's first access, which has no reuse
// distance (cold miss).
const Infinite = ^uint64(0)

// Calculator tracks exact stack distances over a stream of line addresses.
type Calculator struct {
	last  map[mem.LineAddr]uint64 // line -> time slot of most recent access
	tree  []uint64                // Fenwick tree over time slots (1-based)
	marks []bool                  // marks[i]: slot i is some line's latest access
	now   uint64                  // next time slot
}

// NewCalculator returns an empty calculator. capHint sizes the internal
// tables for the expected number of accesses (they grow as needed).
func NewCalculator(capHint int) *Calculator {
	if capHint < 16 {
		capHint = 16
	}
	return &Calculator{
		last:  make(map[mem.LineAddr]uint64, capHint),
		tree:  make([]uint64, capHint+1),
		marks: make([]bool, capHint+1),
	}
}

func (c *Calculator) add(i uint64) {
	for ; int(i) < len(c.tree); i += i & (-i) {
		c.tree[i]++
	}
}

func (c *Calculator) sub(i uint64) {
	for ; int(i) < len(c.tree); i += i & (-i) {
		c.tree[i]--
	}
}

func (c *Calculator) sum(i uint64) uint64 {
	s := uint64(0)
	for ; i > 0; i -= i & (-i) {
		s += c.tree[i]
	}
	return s
}

// grow doubles the tables and rebuilds the Fenwick tree from the marks.
func (c *Calculator) grow() {
	marks := make([]bool, len(c.marks)*2)
	copy(marks, c.marks)
	c.marks = marks
	c.tree = make([]uint64, len(marks))
	for i := 1; i < len(marks); i++ {
		if marks[i] {
			c.add(uint64(i))
		}
	}
}

// Observe records an access to line l and returns its stack distance: the
// number of distinct other lines touched since l's previous access, or
// Infinite for the first access.
func (c *Calculator) Observe(l mem.LineAddr) uint64 {
	c.now++
	if int(c.now) >= len(c.tree) {
		c.grow()
	}
	prev, seen := c.last[l]
	var d uint64
	if !seen {
		d = Infinite
	} else {
		// Distinct lines after prev = marks in (prev, now-1].
		d = c.sum(c.now-1) - c.sum(prev)
		c.sub(prev)
		c.marks[prev] = false
	}
	c.add(c.now)
	c.marks[c.now] = true
	c.last[l] = c.now
	return d
}

// reset empties the calculator without releasing its tables, so it
// observes a new stream exactly as a fresh calculator of the same size.
func (c *Calculator) reset() {
	clear(c.last)
	clear(c.tree)
	clear(c.marks)
	c.now = 0
}

// Distinct returns the number of distinct lines seen so far.
func (c *Calculator) Distinct() int { return len(c.last) }

// Clone returns an independent deep copy: further Observes on either side
// leave the other untouched.
func (c *Calculator) Clone() *Calculator {
	cp := &Calculator{
		last:  make(map[mem.LineAddr]uint64, len(c.last)),
		tree:  append([]uint64(nil), c.tree...),
		marks: append([]bool(nil), c.marks...),
		now:   c.now,
	}
	for k, v := range c.last {
		cp.last[k] = v
	}
	return cp
}

// Histogram accumulates reuse distances into capacity bins, mirroring how
// the paper quantizes distributions by cumulative sublevel capacity.
// Bounds are line counts; infinite distances land in the last bin.
type Histogram struct {
	Bounds []uint64 // ascending, in lines
	Bins   []uint64 // len(Bounds)+1; last bin includes Infinite
	Total  uint64
}

// NewHistogram builds a histogram with the given ascending bounds in lines.
func NewHistogram(bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("reuse: histogram bounds must ascend")
		}
	}
	return &Histogram{Bounds: bounds, Bins: make([]uint64, len(bounds)+1)}
}

// Observe adds one distance (bin i holds d < Bounds[i]).
func (h *Histogram) Observe(d uint64) {
	h.Total++
	for i, b := range h.Bounds {
		if d < b {
			h.Bins[i]++
			return
		}
	}
	h.Bins[len(h.Bins)-1]++
}

// Fractions returns each bin's share (zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Bins))
	if h.Total == 0 {
		return out
	}
	for i, b := range h.Bins {
		out[i] = float64(b) / float64(h.Total)
	}
	return out
}
