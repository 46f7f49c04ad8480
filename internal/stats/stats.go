// Package stats provides the counters, histograms and table rendering used
// by the simulator and the experiment harness. Everything here is plain
// bookkeeping: the goal is that each experiment can collect named quantities
// during a run and print them in the same row/column layout as the paper's
// tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a named monotonically increasing count.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// energyUnitsPerPJ is the fixed-point scale of Energy: 1/65536 pJ per unit.
// A uint64 of these units spans ~2.8e14 pJ (~280 J), far beyond any run,
// while the quantization error stays below 2^-16 pJ per charged event.
const energyUnitsPerPJ = 1 << 16

// Energy accumulates picojoules. Keeping energy in a dedicated type avoids
// accidentally mixing counts and energies in the accounting code. The
// accumulator is a fixed-point integer (1/65536 pJ units), so sums are
// exact and independent of accumulation order.
type Energy struct {
	units uint64
}

// AddPJ adds pj picojoules (rounded to the nearest 1/65536 pJ unit).
func (e *Energy) AddPJ(pj float64) { e.units += uint64(pj*energyUnitsPerPJ + 0.5) }

// PJ returns the accumulated energy in picojoules.
func (e *Energy) PJ() float64 { return float64(e.units) / energyUnitsPerPJ }

// NJ returns the accumulated energy in nanojoules.
func (e *Energy) NJ() float64 { return e.PJ() / 1e3 }

// MJoulesMicro returns the accumulated energy in microjoules.
func (e *Energy) MJoulesMicro() float64 { return e.PJ() / 1e6 }

// Reset zeroes the accumulator.
func (e *Energy) Reset() { e.units = 0 }

// Ratio returns a/b, or 0 when b is zero. It is the safe division used all
// over the reporting code, where empty runs must not produce NaNs.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Pct returns 100*a/b with the same zero-guard as Ratio.
func Pct(a, b float64) float64 { return 100 * Ratio(a, b) }

// Savings returns the percentage reduction of v relative to base: positive
// when v < base (an improvement), negative when v exceeds the base.
func Savings(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - v) / base
}

// GeoMean returns the geometric mean of xs; it ignores non-positive entries
// (which would otherwise poison the product) and returns 0 for an empty set.
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Histogram is a fixed-bin histogram over uint64 samples. Bin i counts
// samples in [bounds[i-1], bounds[i]); the final bin is unbounded above.
type Histogram struct {
	bounds []uint64 // ascending upper bounds; len(bins) == len(bounds)+1
	bins   []uint64
	total  uint64
}

// NewHistogram builds a histogram with the given ascending upper bounds.
// With bounds [a, b] the bins are [0,a), [a,b), [b,inf).
func NewHistogram(bounds []uint64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats.NewHistogram: bounds must be strictly ascending")
		}
	}
	b := make([]uint64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, bins: make([]uint64, len(bounds)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v uint64) {
	h.total++
	for i, ub := range h.bounds {
		if v < ub {
			h.bins[i]++
			return
		}
	}
	h.bins[len(h.bins)-1]++
}

// Bins returns a copy of the raw bin counts.
func (h *Histogram) Bins() []uint64 {
	out := make([]uint64, len(h.bins))
	copy(out, h.bins)
	return out
}

// Total returns the number of observed samples.
func (h *Histogram) Total() uint64 { return h.total }

// Fractions returns each bin's share of the total (all zeros when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.bins))
	if h.total == 0 {
		return out
	}
	for i, b := range h.bins {
		out[i] = float64(b) / float64(h.total)
	}
	return out
}

// Reset zeroes all bins.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i] = 0
	}
	h.total = 0
}

// Table renders rows of labelled values as an aligned text table, the way
// every experiment in this repository prints its figure/table data.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; cells beyond the column count are dropped and short
// rows are padded so ragged input cannot corrupt the layout.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowF formats each value with the given verb (e.g. "%.1f") after the
// leading label cell.
func (t *Table) AddRowF(label, verb string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(verb, v))
	}
	t.AddRow(cells...)
}

// NumRows returns the number of data rows added so far.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// SortedKeys returns the keys of m in ascending order; used to iterate maps
// deterministically when reporting.
func SortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
