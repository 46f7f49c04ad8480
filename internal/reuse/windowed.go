package reuse

import (
	"repro/internal/mem"
)

// Windowed is a bounded-memory stack-distance tracker for online use
// inside a policy driver: it runs the exact Calculator over fixed-size
// epochs of `window` accesses and resets it in place when an epoch fills.
// Distances within an epoch are exact; the first access of each line per
// epoch reads as Infinite (cold), which a Reuse Detector-style consumer
// treats as "no evidence" rather than "no reuse". The epoch reset is what
// keeps state O(window) instead of O(stream) — the online analogue of the
// paper's hardware profilers, which also forget.
type Windowed struct {
	window uint64
	calc   *Calculator
}

// NewWindowed returns a tracker whose epochs span window accesses.
// The inner Calculator is presized to the window so it never grows.
func NewWindowed(window uint64) *Windowed {
	if window < 16 {
		window = 16
	}
	return &Windowed{window: window, calc: NewCalculator(int(window))}
}

// Observe records an access and returns its stack distance within the
// current epoch (Infinite when the line was not yet seen this epoch).
func (w *Windowed) Observe(l mem.LineAddr) uint64 {
	if w.calc.now >= w.window {
		w.calc.reset()
	}
	return w.calc.Observe(l)
}

// Clone returns an independent deep copy mid-epoch: both sides continue
// from the same observation history.
func (w *Windowed) Clone() *Windowed {
	return &Windowed{window: w.window, calc: w.calc.Clone()}
}
