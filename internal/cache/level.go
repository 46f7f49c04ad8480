package cache

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Meta is the 12-bit per-line metadata of Section 4.3: the line's SLIP code
// for each lower level (3b each, copied alongside the line so evictions
// never probe the TLB) plus the 6-bit timestamp TL. Sampling marks lines
// whose page was in the sampling state at insertion.
type Meta struct {
	L2Code   uint8
	L3Code   uint8
	TL       uint8
	Sampling bool
}

// Line is one cache line's state, ordered to pack into 24 bytes. Its flags
// sit in the embedded LineState so it keeps to four fields and four words,
// which Go returns in registers (TestHotValuesFitRegisters guards this).
type Line struct {
	Addr mem.LineAddr
	// Reuses counts hits since insertion into this level (for the Figure 1
	// reuse-number breakdown).
	Reuses uint32
	Meta   Meta
	LineState
}

// LineState holds a Line's flags; embedding promotes them to Line.
type LineState struct {
	Valid bool
	Dirty bool
	// Demoted marks lines that have been moved to a farther sublevel;
	// LRU-PEA preferentially evicts such lines.
	Demoted bool
}

// NumGroups is the number of line-address groups every per-group structure
// in a level is indexed by. Group membership is set&63, which equals
// line&63 whenever the level has at least 64 sets — the invariant behind
// the 1/K set-sampling mask: state indexed by group is touched only by
// accesses to that group, so a sampled group evolves exactly as it would
// in the full run.
const NumGroups = 64

// GroupOf returns the line-address group of a set index.
func GroupOf(set int) int { return set & (NumGroups - 1) }

// Config describes one cache level.
type Config struct {
	// Params carries capacity-independent energy/latency constants.
	Params *energy.LevelParams
	// Bytes is the level capacity.
	Bytes uint64
	// ChargeMetadata enables the 12b-metadata access energy on every hit,
	// fill and movement, and the movement-queue lookup on every access and
	// invalidation (on for SLIP and the NUCA policies, off for the
	// metadata-free baseline).
	ChargeMetadata bool
	// UseRRIP selects SRRIP replacement instead of true LRU (the Section 7
	// extension).
	UseRRIP bool
}

// Stats aggregates the per-level accounting every experiment reads.
type Stats struct {
	Accesses   stats.Counter
	Hits       stats.Counter
	Misses     stats.Counter
	Fills      stats.Counter
	Bypasses   stats.Counter
	Movements  stats.Counter
	Evictions  stats.Counter
	Writebacks stats.Counter

	// HitsPerSublevel feeds the Figure 15 access-fraction breakdown.
	HitsPerSublevel []uint64

	// AccessPJ is hit-servicing read energy (Figure 11 "access").
	AccessPJ stats.Energy
	// MovementPJ covers inter-sublevel movements, insertions and writeback
	// reads (Figure 11 "movement").
	MovementPJ stats.Energy
	// MetadataPJ is the 12b metadata and movement-queue lookup energy.
	MetadataPJ stats.Energy
}

// TotalPJ returns all energy charged at this level.
func (s *Stats) TotalPJ() float64 {
	return s.AccessPJ.PJ() + s.MovementPJ.PJ() + s.MetadataPJ.PJ()
}

// Reset zeroes every counter and energy bucket, keeping the sublevel
// slice's storage (cache contents are untouched); used to discard warmup
// before measuring steady state.
func (s *Stats) Reset() {
	clear(s.HitsPerSublevel)
	*s = Stats{HitsPerSublevel: s.HitsPerSublevel}
}

// Level is one set-associative, energy-asymmetric cache level.
type Level struct {
	cfg     Config
	name    string
	numSets int
	ways    int
	// lines holds every line, lines[set*ways+way].
	lines []Line
	// fp is the tag fingerprint array: fp[set*fpStride+way] is the
	// fingerprint of lines[set*ways+way].Addr (see fingerprint). Rows are
	// padded to whole 8-byte words so findWay probes eight ways per word
	// and reads a Line only on a fingerprint match.
	fp       []uint8
	fpStride int
	setBits  uint
	// valid mirrors per-line Valid bits as one mask per set, letting lookup
	// and victim selection skip invalid ways with bit arithmetic.
	valid []WayMask
	// demoted mirrors the Demoted bits of each set's valid lines, so
	// VictimPrefer finds LRU-PEA's preferred victims with one AND.
	demoted []WayMask
	// cum[i] is the way mask of the sublevels below i (len sublevels+1).
	cum  []WayMask
	repl Repl
	est  *core.RDEstimator
	// T holds one access counter per line-address group, driving the
	// Section 4.1 timestamps group-locally. A group's counter advances only
	// on that group's traffic, so it is identical whether the group ran in
	// a full replay or under a 1/K sampling mask (the group either
	// receives its full stream or none of it).
	T [NumGroups]uint64

	Stats Stats
}

// New builds a level from cfg. It panics on a geometry the level cannot
// hold: a capacity that is not whole sets of lines, a set count that is
// not a power of two, or more than 16 ways.
func New(cfg Config) *Level {
	if cfg.Params == nil {
		panic("cache: Config.Params is required")
	}
	ways := cfg.Params.NumWays()
	if ways > maxLRUWays {
		panic(fmt.Sprintf("cache: %d ways exceeds the %d-way limit", ways, maxLRUWays))
	}
	if cfg.Bytes == 0 || cfg.Bytes%(uint64(ways)*mem.LineBytes) != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible into %d ways of lines", cfg.Bytes, ways))
	}
	numSets := int(cfg.Bytes / (uint64(ways) * mem.LineBytes))
	if !mem.IsPow2(uint64(numSets)) {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", numSets))
	}
	l := &Level{
		cfg:      cfg,
		name:     cfg.Params.Name,
		numSets:  numSets,
		ways:     ways,
		lines:    make([]Line, numSets*ways),
		fpStride: (ways + 7) &^ 7,
		setBits:  uint(bits.TrailingZeros(uint(numSets))),
		valid:    make([]WayMask, numSets),
		demoted:  make([]WayMask, numSets),
	}
	l.fp = make([]uint8, numSets*l.fpStride)
	l.cum = make([]WayMask, len(cfg.Params.SublevelWays)+1)
	first := 0
	for i, n := range cfg.Params.SublevelWays {
		first += n
		l.cum[i+1] = WayMask(1)<<first - 1
	}
	if cfg.UseRRIP {
		l.repl = NewRRIP(numSets, ways, 2)
	} else {
		l.repl = NewLRU(numSets, ways)
	}
	// The estimator is sized for one group's share of the capacity: its
	// ticks count group-local accesses (T[g]) and its distances are
	// rescaled x64 back to whole-level lines in Access. A group sees 1/64
	// of the level's traffic over 1/64 of its lines regardless of how many
	// groups are masked off, so the estimate's resolution (granule x 64 =
	// 4C/64 whole-level lines per tick) is invariant under set sampling.
	estLines := uint64(numSets*ways) / NumGroups
	if estLines == 0 {
		estLines = 1
	}
	l.est = core.NewRDEstimator(estLines)
	l.Stats.HitsPerSublevel = make([]uint64, len(cfg.Params.SublevelWays))
	return l
}

// Name returns the level name (e.g. "L2").
func (l *Level) Name() string { return l.name }

// NumSets returns the set count.
func (l *Level) NumSets() int { return l.numSets }

// NumWays returns the associativity.
func (l *Level) NumWays() int { return l.ways }

// Lines returns the level capacity in cache lines.
func (l *Level) Lines() uint64 { return uint64(l.numSets * l.ways) }

// Params returns the energy/latency constants.
func (l *Level) Params() *energy.LevelParams { return l.cfg.Params }

// Repl exposes the replacement policy (only tests call it).
func (l *Level) Repl() Repl { return l.repl }

// SetOf returns the set index for a line address.
func (l *Level) SetOf(a mem.LineAddr) int {
	return int(uint64(a) & uint64(l.numSets-1))
}

// SublevelMask returns the way mask of sublevel i.
func (l *Level) SublevelMask(i int) WayMask { return l.cum[i+1] &^ l.cum[i] }

// ChunkMask returns the way mask for a chunk spanning sublevels
// [first, last]; it is empty when last < first.
func (l *Level) ChunkMask(first, last int) WayMask { return l.cum[last+1] &^ l.cum[first] }

// LineAt returns a copy of the line at (set, way).
func (l *Level) LineAt(set, way int) Line { return l.lines[set*l.ways+way] }

// line returns the line at (set, way) for update.
func (l *Level) line(set, way int) *Line { return &l.lines[set*l.ways+way] }

// fingerprint hashes the tag of a (the address bits above the set index)
// to the byte findWay compares. The multiplicative hash keeps strided
// streams, whose tags share their low bits, from sharing one fingerprint.
func (l *Level) fingerprint(a mem.LineAddr) uint8 {
	return uint8((uint64(a) >> l.setBits) * 0x9e3779b97f4a7c15 >> 56)
}

// chargeMeta adds the per-line metadata access energy when enabled.
func (l *Level) chargeMeta() {
	if l.cfg.ChargeMetadata {
		l.Stats.MetadataPJ.AddPJ(l.cfg.Params.MetadataPJ)
	}
}

// chargeMQ charges one lookup of the Section 4.3 movement queue, which
// every access and invalidation must check for lines in flight between
// ways. Movements complete off the timing path, so the lookup's energy is
// the queue's only effect on results.
func (l *Level) chargeMQ() {
	if l.cfg.ChargeMetadata {
		l.Stats.MetadataPJ.AddPJ(energy.MovementQueueLookupPJ)
	}
}

// AccessResult reports the outcome of a lookup. Like Line, it keeps to
// four fields and four words so Access returns it in registers
// (TestHotValuesFitRegisters guards this).
type AccessResult struct {
	Hit bool
	// Way and Set locate the line on a hit.
	Way, Set int
	// RDLines is the timestamp-estimated reuse distance of this hit in
	// whole-level lines (Section 4.1): the group-local estimate rescaled
	// x64, since a group holds 1/64 of the capacity and sees 1/64 of the
	// traffic. Only meaningful on hits.
	RDLines uint64
}

// Access performs a lookup for line a, updating recency, timestamps and
// energy accounting. On a hit the line is read (its way energy is charged)
// and dirtied when store is set. On a miss only the access counter
// advances; insertion is a separate policy decision.
func (l *Level) Access(a mem.LineAddr, store bool) AccessResult {
	set := l.SetOf(a)
	g := GroupOf(set)
	l.T[g]++
	l.Stats.Accesses.Inc()
	l.chargeMQ()
	if w := l.findWay(set, a); w >= 0 {
		ln := l.line(set, w)
		l.Stats.Hits.Inc()
		l.Stats.HitsPerSublevel[l.cfg.Params.WaySublevel(w)]++
		l.Stats.AccessPJ.AddPJ(l.cfg.Params.WayAccessPJ[w])
		l.chargeMeta()
		rd := l.est.RDLines(l.T[g], ln.Meta.TL) * NumGroups
		ln.Meta.TL = l.est.Stamp(l.T[g])
		ln.Reuses++
		if store {
			ln.Dirty = true
		}
		l.repl.OnHit(set, w)
		return AccessResult{Hit: true, Way: w, Set: set, RDLines: rd}
	}
	l.Stats.Misses.Inc()
	return AccessResult{Hit: false, Set: set}
}

// Byte-broadcast constants for the SWAR zero-byte test.
const (
	byteOnes = 0x0101010101010101
	byteHigh = 0x8080808080808080
)

// findWay returns the way holding line a in set, or -1 — the innermost
// loop of the simulator. It compares a's fingerprint against eight ways
// per word: the zero-byte test on row^broadcast(fp) flags every matching
// byte (plus, rarely, a 0x01 byte above one), and each flagged way is
// verified against the valid mask and the line's full address. A miss
// usually reads one or two words and no Line.
func (l *Level) findWay(set int, a mem.LineAddr) int {
	pat := uint64(l.fingerprint(a)) * byteOnes
	valid := l.valid[set]
	row := l.fp[set*l.fpStride : (set+1)*l.fpStride]
	for base := 0; base < len(row); base += 8 {
		x := binary.LittleEndian.Uint64(row[base:]) ^ pat
		for m := (x - byteOnes) &^ x & byteHigh; m != 0; m &= m - 1 {
			w := base + bits.TrailingZeros64(m)>>3
			if valid.Has(w) && l.lines[set*l.ways+w].Addr == a {
				return w
			}
		}
	}
	return -1
}

// Probe reports whether a is resident without touching any state (the
// lookup used by invalidations and by tests).
func (l *Level) Probe(a mem.LineAddr) (way int, hit bool) {
	set := l.SetOf(a)
	if w := l.findWay(set, a); w >= 0 {
		return w, true
	}
	return -1, false
}

// VictimIn picks the way to replace within mask: an invalid way when one
// exists, otherwise the replacement policy's choice.
func (l *Level) VictimIn(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: VictimIn with empty mask")
	}
	if free := mask &^ l.valid[set]; free != 0 {
		return bits.TrailingZeros32(uint32(free))
	}
	return l.repl.Victim(set, mask)
}

// VictimPrefer picks a victim within mask like VictimIn, but when any line
// in the mask is demoted, the replacement choice is restricted to the
// demoted lines — the mechanism behind LRU-PEA's preferential eviction.
func (l *Level) VictimPrefer(set int, mask WayMask) int {
	if mask == 0 {
		panic("cache: VictimPrefer with empty mask")
	}
	if free := mask &^ l.valid[set]; free != 0 {
		return bits.TrailingZeros32(uint32(free))
	}
	if preferred := mask & l.demoted[set]; preferred != 0 {
		return l.repl.Victim(set, preferred)
	}
	return l.repl.Victim(set, mask)
}

// MarkDemoted sets the demotion flag on the line at (set, way).
func (l *Level) MarkDemoted(set, way int, demoted bool) {
	ln := l.line(set, way)
	if !ln.Valid {
		panic("cache: marking an invalid line")
	}
	ln.Demoted = demoted
	l.demoted[set] = l.demoted[set]&^(1<<way) | boolMask(demoted, way)
}

// boolMask returns the mask of way w when b is set, else 0.
func boolMask(b bool, w int) WayMask {
	if b {
		return 1 << w
	}
	return 0
}

// Fill installs line a at (set, way), returning the displaced line (whose
// Valid reports whether there was one). The write energy is charged as
// movement energy (insertions count as movement in Figure 11); the caller
// handles the displaced line per its own policy.
func (l *Level) Fill(set, way int, a mem.LineAddr, dirty bool, meta Meta) (evicted Line) {
	ln := l.line(set, way)
	evicted = *ln
	meta.TL = l.est.Stamp(l.T[GroupOf(set)])
	*ln = Line{Addr: a, Meta: meta, LineState: LineState{Valid: true, Dirty: dirty}}
	l.fp[set*l.fpStride+way] = l.fingerprint(a)
	l.valid[set] |= 1 << way
	l.demoted[set] &^= 1 << way
	l.Stats.Fills.Inc()
	l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[way])
	l.chargeMeta()
	l.repl.OnFill(set, way)
	return evicted
}

// Move relocates the line at (set, from) to (set, to), charging the
// movement read+write. The displaced line at the destination is returned
// for the caller to handle.
func (l *Level) Move(set, from, to int) (displaced Line) {
	src := l.line(set, from)
	if !src.Valid {
		panic("cache: moving an invalid line")
	}
	if from == to {
		panic("cache: moving a line onto itself")
	}
	moved := *src
	src.Valid = false
	dst := l.line(set, to)
	displaced = *dst
	*dst = moved
	row := l.fp[set*l.fpStride:]
	row[to] = row[from]
	l.valid[set] = l.valid[set]&^(1<<from) | 1<<to
	l.demoted[set] = l.demoted[set]&^(1<<from|1<<to) | boolMask(moved.Demoted, to)
	l.Stats.Movements.Inc()
	l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[from] + l.cfg.Params.WayAccessPJ[to])
	l.chargeMeta()
	l.repl.OnFill(set, to)
	return displaced
}

// Swap exchanges the lines at (set, w1) and (set, w2) — the promotion
// primitive of NuRAPID and LRU-PEA, which demote the displaced line into
// the promoted line's old location. Both lines are read and rewritten, so
// the energy is twice a single movement.
func (l *Level) Swap(set, w1, w2 int) {
	if w1 == w2 {
		panic("cache: swapping a way with itself")
	}
	a, b := l.line(set, w1), l.line(set, w2)
	if !a.Valid || !b.Valid {
		panic("cache: swapping an invalid line")
	}
	*a, *b = *b, *a
	row := l.fp[set*l.fpStride:]
	row[w1], row[w2] = row[w2], row[w1]
	l.demoted[set] = l.demoted[set]&^(1<<w1|1<<w2) | boolMask(a.Demoted, w1) | boolMask(b.Demoted, w2)
	l.Stats.Movements.Add(2)
	l.Stats.MovementPJ.AddPJ(2 * (l.cfg.Params.WayAccessPJ[w1] + l.cfg.Params.WayAccessPJ[w2]))
	l.chargeMeta()
	l.repl.OnFill(set, w1)
	l.repl.OnFill(set, w2)
}

// EvictionRead charges the read required to write back or demote an evicted
// dirty line out of this level (the read half of a writeback; the write
// half is charged where the data lands).
func (l *Level) EvictionRead(way int) {
	l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[way])
}

// NoteEviction counts a line leaving the level entirely.
func (l *Level) NoteEviction(dirty bool) {
	l.Stats.Evictions.Inc()
	if dirty {
		l.Stats.Writebacks.Inc()
	}
}

// NoteBypass counts an insertion the policy suppressed entirely.
func (l *Level) NoteBypass() { l.Stats.Bypasses.Inc() }

// WritebackTo merges a writeback from an upper level into this level's copy
// of a, charging the data write but leaving recency untouched (a writeback
// is not a demand reference). It reports whether the line was resident.
func (l *Level) WritebackTo(a mem.LineAddr) bool {
	set := l.SetOf(a)
	if w := l.findWay(set, a); w >= 0 {
		l.line(set, w).Dirty = true
		l.Stats.MovementPJ.AddPJ(l.cfg.Params.WayAccessPJ[w])
		l.chargeMeta()
		return true
	}
	return false
}

// Invalidate drops line a if resident, returning the line so callers can
// handle dirty data. Like an access, it looks up the movement queue.
func (l *Level) Invalidate(a mem.LineAddr) (Line, bool) {
	set := l.SetOf(a)
	l.chargeMQ()
	if w := l.findWay(set, a); w >= 0 {
		ln := l.line(set, w)
		out := *ln
		ln.Valid = false
		l.valid[set] &^= 1 << w
		l.demoted[set] &^= 1 << w
		return out, true
	}
	return Line{}, false
}

// ForEachLine visits every valid line (for end-of-run statistics such as
// Figure 1's resident-line reuse counts).
func (l *Level) ForEachLine(f func(set, way int, ln Line)) {
	for i, ln := range l.lines {
		if ln.Valid {
			f(i/l.ways, i%l.ways, ln)
		}
	}
}

// StatsOnly returns a level that holds only a name and statistics, with no
// lines, tags or replacement state; only Name and Stats may be used. It
// exists for the stats-only System views hier.Result.View builds for
// perfbench, and goes with them.
func StatsOnly(name string, st Stats) *Level { return &Level{name: name, Stats: st} }
