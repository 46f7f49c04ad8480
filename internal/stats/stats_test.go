package stats

import (
	"strings"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestEnergyUnits(t *testing.T) {
	var e Energy
	e.AddPJ(1500)
	if e.PJ() != 1500 {
		t.Errorf("PJ = %v", e.PJ())
	}
}

// TestChargePJMatchesAddPJ: pricing n events at once equals charging them
// one by one, for prices that do not fall on a whole unit.
func TestChargePJMatchesAddPJ(t *testing.T) {
	for _, pj := range []float64{0.3, 1.27, 2.5, 10240, 12.0 / 7} {
		var e Energy
		for n := uint64(0); n <= 1000; n++ {
			if got := ChargePJ(n, pj); got != e.PJ() {
				t.Fatalf("ChargePJ(%d, %v) = %v, want %v", n, pj, got, e.PJ())
			}
			e.AddPJ(pj)
		}
	}
}

func TestRatioPctSavings(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if Pct(1, 4) != 25 {
		t.Errorf("Pct(1,4) = %v", Pct(1, 4))
	}
	if Savings(100, 65) != 35 {
		t.Errorf("Savings(100,65) = %v", Savings(100, 65))
	}
	if Savings(100, 184) != -84 {
		t.Errorf("Savings(100,184) = %v", Savings(100, 184))
	}
	if Savings(0, 5) != 0 {
		t.Error("Savings with zero base should be 0")
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "bench", "savings")
	tb.AddRow("soplex", "35.0")
	tb.AddRowF("mcf", "%.1f", 12.34)
	out := tb.String()
	if !strings.Contains(out, "Fig. X") || !strings.Contains(out, "soplex") {
		t.Errorf("table output missing content:\n%s", out)
	}
	if !strings.Contains(out, "12.3") {
		t.Errorf("formatted row missing:\n%s", out)
	}
	if tb.NumRows() != 2 {
		t.Errorf("NumRows = %d", tb.NumRows())
	}
	// Ragged rows must not panic and must pad/truncate.
	tb.AddRow("a", "b", "c", "d")
	tb.AddRow("only-label")
	_ = tb.String()
}

// TestTableValue reads back what AddRowF kept, bit for bit, including an
// average row; an unknown row or column, the label column and a text row
// panic.
func TestTableValue(t *testing.T) {
	tb := NewTable("Fig. X", "bench", "L2", "L3")
	tb.AddRowF("soplex", "%.1f%%", 35.04, -2.5)
	tb.AddRow("note", "n/a", "n/a")
	tb.AddRowF("mcf", "%.1f%%", 1.0/3, 12.25)
	tb.AddRowF("average", "%.1f%%", Mean([]float64{35.04, 1.0 / 3}), Mean([]float64{-2.5, 12.25}))
	for _, c := range []struct {
		row, col string
		want     float64
	}{
		{"soplex", "L2", 35.04},
		{"soplex", "L3", -2.5},
		{"mcf", "L2", 1.0 / 3},
		{"mcf", "L3", 12.25},
		{"average", "L2", (35.04 + 1.0/3) / 2},
		{"average", "L3", 4.875},
	} {
		if got := tb.Value(c.row, c.col); got != c.want {
			t.Errorf("Value(%q, %q) = %v, want %v", c.row, c.col, got, c.want)
		}
	}
	for _, c := range [][2]string{
		{"gcc", "L2"},    // unknown row
		{"mcf", "L4"},    // unknown column
		{"mcf", "bench"}, // the label column holds no value
		{"note", "L2"},   // a text row holds no values
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Value(%q, %q) did not panic", c[0], c[1])
				}
			}()
			tb.Value(c[0], c[1])
		}()
	}
}
