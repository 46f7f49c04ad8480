// Package stats provides the counters, energy accumulators and table
// rendering used by the simulator and the experiment harness. Everything here is plain
// bookkeeping: the goal is that each experiment can collect named quantities
// during a run and print them in the same row/column layout as the paper's
// tables and figures.
package stats

import (
	"fmt"
	"slices"
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

// units rounds pj to the nearest whole 1/65536 pJ unit.
func units(pj float64) uint64 { return uint64(pj*energyUnitsPerPJ + 0.5) }

// AddPJ adds pj picojoules (rounded to the nearest 1/65536 pJ unit).
func (e *Energy) AddPJ(pj float64) { e.units += units(pj) }

// ChargePJ returns the picojoules of n events priced pj each, every one
// rounded as AddPJ rounds it: the PJ of n AddPJ(pj) calls, bit for bit.
func ChargePJ(n uint64, pj float64) float64 { return float64(n*units(pj)) / energyUnitsPerPJ }

// PJ returns the accumulated energy in picojoules.
func (e *Energy) PJ() float64 { return float64(e.units) / energyUnitsPerPJ }

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

// Table renders rows of labelled values as an aligned text table, the way
// every experiment in this repository prints its figure/table data, and
// keeps the numbers it formats so a caller reads a cell by its labels.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
	vals    [][]float64 // row i's AddRowF values; nil for an AddRow row
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: slices.Clone(columns)}
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
	t.vals = append(t.vals, nil)
}

// AddRowF formats each value with the given verb (e.g. "%.1f") after the
// leading label cell, and keeps the values for Value.
func (t *Table) AddRowF(label, verb string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(verb, v))
	}
	t.AddRow(cells...)
	t.vals[len(t.vals)-1] = slices.Clone(vals)
}

// Value returns the number AddRowF kept for the first row labelled row, in
// the column headed col. It panics on an unknown row or column and on a
// row added by AddRow, so a mistyped label fails the caller that reads it.
func (t *Table) Value(row, col string) float64 {
	c := slices.Index(t.Columns, col) - 1 // vals skip the label column
	for i, r := range t.rows {
		if r[0] != row {
			continue
		}
		if c < 0 || c >= len(t.vals[i]) {
			panic(fmt.Sprintf("stats: table %q row %q has no value in column %q", t.Title, row, col))
		}
		return t.vals[i][c]
	}
	panic(fmt.Sprintf("stats: table %q has no row %q", t.Title, row))
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
