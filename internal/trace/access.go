// Package trace defines the memory access streams the simulator consumes:
// the Access record, deterministic synthetic region generators that stand in
// for the paper's SPEC-CPU2006 PinPoints traces, and a compact binary codec
// for storing generated traces on disk.
//
// The substitution is documented in DESIGN.md: SLIP's behaviour depends only
// on the reuse-distance structure of the post-L1 reference stream, so each
// benchmark is modelled as a weighted interleaving of region generators
// (streams, loops, random/pointer-chase regions, stencils) whose mixture is
// calibrated against the paper's description of that benchmark.
package trace

import (
	"repro/internal/mem"
)

// Access is one memory reference.
type Access struct {
	// Addr is the physical byte address referenced.
	Addr mem.Addr
	// Store marks writes; they dirty cache lines and cause writebacks.
	Store bool
	// Gap is the number of non-memory instructions executed since the
	// previous access; the timing model uses it to convert stall cycles
	// into speedup, and the energy model charges core energy per
	// instruction.
	Gap uint32
}

// Source produces a stream of accesses in bulk, so a consumer pays one
// interface dispatch per batch rather than per access.
type Source interface {
	// NextBatch fills dst with the next accesses of the stream and returns
	// how many were written. A short count (< len(dst)) ends the stream:
	// every later call returns 0. The stream does not depend on how
	// callers size their batches. Synthetic generators are unbounded and
	// always fill dst; file readers and limiters end.
	NextBatch(dst []Access) int
}

// Limit wraps a source and cuts the stream after n accesses.
func Limit(s Source, n uint64) Source { return &limiter{s: s, left: n} }

type limiter struct {
	s    Source
	left uint64
}

// NextBatch implements Source: the limit applies to the batch as a whole,
// so a limiter stays on its source's bulk path.
func (l *limiter) NextBatch(dst []Access) int {
	if l.left < uint64(len(dst)) {
		dst = dst[:l.left]
	}
	k := l.s.NextBatch(dst)
	l.left -= uint64(k)
	return k
}

// FillBatch is s.NextBatch(dst).
//
// Deprecated: call s.NextBatch directly.
func FillBatch(s Source, dst []Access) int { return s.NextBatch(dst) }

// Collect reads up to n accesses from s into a slice (handy in tests).
func Collect(s Source, n int) []Access {
	out := make([]Access, n)
	return out[:s.NextBatch(out)]
}

// Drain advances src by up to n accesses, discarding them. It positions a
// fresh source chain exactly where an equivalent chain stands after a run
// consumed n accesses — the warm-state cache uses it to skip sources past a
// warmup that a snapshot already embodies.
func Drain(src Source, n uint64) {
	var buf [512]Access
	for n > 0 {
		want := min(n, uint64(len(buf)))
		k := src.NextBatch(buf[:want])
		n -= uint64(k)
		if k < int(want) {
			return
		}
	}
}
