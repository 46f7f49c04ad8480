package experiments

import (
	"fmt"

	"repro/internal/lru"
	"repro/internal/trace"
)

// DefaultTraceCacheBytes is the byte budget a zero Options.TraceCacheBytes
// selects. At the default 2M+2M sizing a recorded stream takes 3.42 bytes
// per access on average (2.35 for lbm to 4.42 for astar), so the 14
// benchmark streams of one matrix come to 182.5 MiB, which fits.
const DefaultTraceCacheBytes = 256 << 20

// TraceCache materializes workload traces once and hands out replays: the
// fig9 matrix runs every benchmark under five policies, so without it ~86%
// of trace-generation work is redundant. Entries are keyed by the exact
// identity of a per-core source — workload name, seed, and total access
// budget, all taken from the canonical spec — and hold an immutable
// trace.Buffer (~2-4 bytes per access, the disk codec's record format, in
// 64 KiB chunks), sized by the bytes it retains. A PrefetchContext batch
// removes each stream it replays when the last of its runs that reads it
// returns; every other stream stays under the LRU byte budget. Removal and
// eviction are safe at any time because buffers are immutable and replays
// hold their own reference.
type TraceCache = lru.Cache[*trace.Buffer]

// TraceCacheStats is a point-in-time snapshot of trace cache activity.
type TraceCacheStats = lru.Stats

// NewTraceCache builds a cache bounded by budgetBytes (<= 0 selects
// DefaultTraceCacheBytes).
func NewTraceCache(budgetBytes int64) *TraceCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultTraceCacheBytes
	}
	return lru.New(budgetBytes, func(b *trace.Buffer) int64 { return int64(b.Size()) })
}

// traceCacheKey names one per-core source: the workload, the seed its
// generator is built with, and how many accesses the run will consume
// (warmup + measured). All three come from the resolved canonical spec, so
// every run layer — CLI, experiment engine, daemon — derives the same key
// for the same stream, and runs differing only in policy or knobs share
// one materialized trace.
func traceCacheKey(workload string, seed, total uint64) string {
	return fmt.Sprintf("t1:%s:%d:%d", workload, seed, total)
}
