package experiments

import (
	"strings"

	"repro/internal/hier"
	"repro/internal/lru"
	"repro/internal/spec"
)

// DefaultWarmCacheBytes is the byte budget NewWarmCache(0) selects. A
// default-configuration snapshot (L1+L2+L3 arrays plus the MMU page table)
// retains a few MB, so this holds the full benchmark x policy matrix of
// warm states with headroom.
const DefaultWarmCacheBytes = 256 << 20

// WarmCache memoizes post-warmup hierarchy snapshots: every run whose
// warmup-determining identity (workload/mix, seed, policy, knobs, sizing,
// warmup length — everything in the canonical spec except the measured
// window) matches a cached entry skips its warmup simulation entirely and
// starts from an independent clone of the snapshot. Snapshot+clone runs are
// bit-identical to straight-through runs (proven by the hier digest tests),
// so the cache is purely a wall-clock optimization. Entries are sized by
// their estimated snapshot bytes.
//
// It pays only where one warmup identity recurs, as in slipd's requests
// that differ only in their measured window. Within one cold matrix every
// run is a distinct identity, so a Suite runs without a warm cache unless
// Options.WarmCache hands it one.
type WarmCache = lru.Cache[*hier.Snapshot]

// WarmCacheStats is a point-in-time snapshot of warm cache activity.
type WarmCacheStats = lru.Stats

// NewWarmCache builds a cache bounded by budgetBytes (<= 0 selects
// DefaultWarmCacheBytes).
func NewWarmCache(budgetBytes int64) *WarmCache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultWarmCacheBytes
	}
	return lru.New(budgetBytes, func(s *hier.Snapshot) int64 { return int64(s.SizeBytes()) })
}

// warmCacheKey names the warmup-determining projection of a canonical spec:
// every field except the measured window determines the post-warmup state,
// so Accesses is pinned to a constant and everything else — workload, mix,
// cores, seed, policy, knobs, tech/topology, sizing, DRAM model and the
// warmup length itself — flows into the content hash. Pinning (rather than
// an allowlist) means any field added to the spec later is conservatively
// part of the warm identity until someone proves it isn't.
func warmCacheKey(c spec.Spec) string {
	c.Accesses = 1 // pinned: only the measured window is outside the warm identity
	return "w1:" + strings.TrimPrefix(c.MustHash(), "s1:")
}
