package policy

// reuse-bypass is a post-publication policy: a Reuse Detector-style
// insertion filter (PAPERS.md #4) on an otherwise conventional cache. An
// online windowed stack-distance tracker watches the level's access
// stream; a line whose observed reuse distance exceeds the level's
// capacity would be evicted before its next use, so inserting it only
// spends fill and eviction energy — such lines bypass the level entirely.
// Cold lines (no evidence yet) get a first chance.

import (
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/reuse"
)

// ReuseBypass filters insertions by observed reuse distance; surviving
// fills use the baseline global-LRU placement, and hits never move lines.
// The detector is banked per line-address group: each group's tracker
// watches only that group's stream and proves distances against the
// group's share of the capacity. Distances and thresholds both scale by
// 1/64, so the bypass decision approximates the whole-level criterion
// while each group's evidence is a pure function of its own stream —
// which is what lets set sampling drive any subset of groups and still
// make, line for line, the decisions a full run would make on those
// groups.
type ReuseBypass struct {
	// lines is one group's share of the level capacity, latched on first
	// use (a pure function of the level geometry, so snapshot clones
	// driven against fresh Level instances of the same shape re-derive
	// the same value).
	lines uint64
	// wins[g] tracks group g's stack distances over epochs of 4x the
	// group's capacity share — long enough to prove "distance >=
	// capacity" for any line that could have been resident, small enough
	// to stay O(capacity).
	wins [cache.NumGroups]*reuse.Windowed
}

// NewReuseBypass returns the driver; its trackers are sized lazily from
// the first Level it is driven with.
func NewReuseBypass() *ReuseBypass { return &ReuseBypass{} }

// ensure latches the capacity share and sizes the trackers on first
// contact.
func (r *ReuseBypass) ensure(l *cache.Level) {
	if r.wins[0] == nil {
		r.lines = l.Lines() / cache.NumGroups
		if r.lines == 0 {
			r.lines = 1
		}
		for g := range r.wins {
			r.wins[g] = reuse.NewWindowed(4 * r.lines)
		}
	}
}

// OnHit implements Driver: no movement, but the hit feeds the detector so
// distances reflect the full demand stream, not just misses.
func (r *ReuseBypass) OnHit(l *cache.Level, set, way int) {
	r.ensure(l)
	r.wins[cache.GroupOf(set)].Observe(l.LineAt(set, way).Addr)
}

// Insert implements Driver: bypass when the line's observed reuse
// distance proves it cannot survive to its next use; insert otherwise.
func (r *ReuseBypass) Insert(l *cache.Level, a mem.LineAddr, dirty bool, meta cache.Meta) Outcome {
	r.ensure(l)
	set := l.SetOf(a)
	d := r.wins[cache.GroupOf(set)].Observe(a)
	if d != reuse.Infinite && d >= r.lines {
		l.NoteBypass()
		return Outcome{Bypassed: true}
	}
	way := l.VictimIn(set, cache.FullMask(l.NumWays()))
	ev := l.Fill(set, way, a, dirty, meta)
	if ev.Valid {
		finishEviction(l, ev, way)
	}
	return Outcome{Evicted: ev}
}

// Clone implements Driver: every tracker's mid-epoch history is
// deep-copied so a snapshot clone bypasses exactly what the original
// would have.
func (r *ReuseBypass) Clone() Driver {
	cp := &ReuseBypass{lines: r.lines}
	if r.wins[0] != nil {
		for g, w := range r.wins {
			cp.wins[g] = w.Clone()
		}
	}
	return cp
}
