package cache

import (
	"testing"
	"unsafe"

	"repro/internal/energy"
	"repro/internal/mem"
	"repro/internal/stats"
)

// testLevel builds a paper-configured L2 (256KB, 16 way).
func testLevel(meta bool) *Level {
	return New(Config{
		Params:         energy.L2Params45(),
		Bytes:          256 * mem.KB,
		ChargeMetadata: meta,
	})
}

func TestLevelGeometry(t *testing.T) {
	l := testLevel(false)
	if l.NumSets() != 256 || l.NumWays() != 16 {
		t.Fatalf("geometry = %d sets x %d ways", l.NumSets(), l.NumWays())
	}
	if l.Lines() != 4096 {
		t.Errorf("Lines = %d", l.Lines())
	}
	if l.Name() != "L2" {
		t.Errorf("Name = %s", l.Name())
	}
}

func TestLevelConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"nil params": {Bytes: 256 * mem.KB},
		"bad bytes":  {Params: energy.L2Params45(), Bytes: 100},
		"non-pow2-sets": {Params: energy.L2Params45(),
			Bytes: 3 * 16 * 64 * mem.KB / mem.KB * mem.KB},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	l := testLevel(false)
	a := mem.Addr(0x10000).Line()
	if r := l.Access(a, false); r.Hit {
		t.Fatal("cold access hit")
	}
	set := l.SetOf(a)
	way := l.VictimIn(set, FullMask(16))
	ev := l.Fill(set, way, a, false, Meta{})
	if ev.Valid {
		t.Fatal("cold fill displaced a line")
	}
	r := l.Access(a, false)
	if !r.Hit || r.Way != way {
		t.Fatalf("refetch: hit=%v way=%d", r.Hit, r.Way)
	}
	if l.Stats.HitsPerSublevel[l.Params().WaySublevel(r.Way)] != 1 {
		t.Errorf("hit not counted in its way's sublevel: %v", l.Stats.HitsPerSublevel)
	}
	if l.Stats.Hits.Value() != 1 || l.Stats.Misses.Value() != 1 || l.Stats.Fills.Value() != 1 {
		t.Errorf("stats: %+v", l.Stats)
	}
}

func TestVictimPrefersInvalidWay(t *testing.T) {
	l := testLevel(false)
	set := 0
	l.Fill(set, 0, mem.LineAddr(0), false, Meta{})
	// Ways 1.. are invalid; victim in the full mask must be one of them.
	if v := l.VictimIn(set, FullMask(16)); v != 1 {
		t.Errorf("victim = %d, want first invalid way 1", v)
	}
	// Restricted to way 0 only, the valid line must be chosen.
	if v := l.VictimIn(set, RangeMask(0, 0)); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
}

func TestStoreDirtiesLine(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(42)
	set := l.SetOf(a)
	l.Fill(set, 0, a, false, Meta{})
	l.Access(a, true)
	if !l.LineAt(set, 0).Dirty {
		t.Error("store hit did not dirty the line")
	}
}

func TestHitEnergyMatchesWay(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(7)
	set := l.SetOf(a)
	l.Fill(set, 12, a, false, Meta{}) // way 12: sublevel 2, 50 pJ
	before := l.Stats.AccessPJ.PJ()
	l.Access(a, false)
	if got := l.Stats.AccessPJ.PJ() - before; got != 50 {
		t.Errorf("hit energy = %v pJ, want 50", got)
	}
	if l.Stats.HitsPerSublevel[2] != 1 {
		t.Errorf("sublevel hit counters = %v", l.Stats.HitsPerSublevel)
	}
}

func TestFillEnergyIsMovement(t *testing.T) {
	l := testLevel(false)
	l.Fill(0, 0, mem.LineAddr(0), false, Meta{}) // way 0: 21 pJ write
	if got := l.Stats.MovementPJ.PJ(); got != 21 {
		t.Errorf("fill energy = %v pJ, want 21", got)
	}
}

// TestMetadataChargedOnlyWhenEnabled pins MetadataPJ charge by charge: a
// fill, a move and a swap each touch the 12b metadata once; an access and
// an invalidation each also look up the movement queue, and nothing else
// does.
func TestMetadataChargedOnlyWhenEnabled(t *testing.T) {
	plain, meta := testLevel(false), testLevel(true)
	a, b := mem.LineAddr(3), mem.LineAddr(259) // same set (256 sets)
	set := meta.SetOf(a)
	metaPJ := meta.Params().MetadataPJ
	var want stats.Energy
	step := func(name string, op func(l *Level), charges ...float64) {
		t.Helper()
		for _, l := range []*Level{plain, meta} {
			op(l)
		}
		for _, pj := range charges {
			want.AddPJ(pj)
		}
		if got := meta.Stats.MetadataPJ.PJ(); got != want.PJ() {
			t.Errorf("after %s: MetadataPJ = %v, want %v", name, got, want.PJ())
		}
	}
	step("fill", func(l *Level) { l.Fill(set, 0, a, false, Meta{}) }, metaPJ)
	step("hit", func(l *Level) { l.Access(a, false) }, energy.MovementQueueLookupPJ, metaPJ)
	step("move", func(l *Level) { l.Move(set, 0, 12) }, metaPJ)
	step("fill", func(l *Level) { l.Fill(set, 0, b, false, Meta{}) }, metaPJ)
	step("swap", func(l *Level) { l.Swap(set, 0, 12) }, metaPJ)
	step("invalidate", func(l *Level) { l.Invalidate(a) }, energy.MovementQueueLookupPJ)
	if plain.Stats.MetadataPJ.PJ() != 0 {
		t.Errorf("baseline charged metadata: %v", plain.Stats.MetadataPJ.PJ())
	}
}

func TestMoveTransfersLineAndCharges(t *testing.T) {
	l := testLevel(true)
	a := mem.LineAddr(9)
	set := l.SetOf(a)
	l.Fill(set, 2, a, true, Meta{L2Code: 5})
	before := l.Stats.MovementPJ.PJ()
	displaced := l.Move(set, 2, 10)
	if displaced.Valid {
		t.Error("move into empty way displaced something")
	}
	if got := l.Stats.MovementPJ.PJ() - before; got != 21+50 {
		t.Errorf("move energy = %v pJ, want 71 (read way2 + write way10)", got)
	}
	if w, hit := l.Probe(a); !hit || w != 10 {
		t.Errorf("after move: way=%d hit=%v", w, hit)
	}
	ln := l.LineAt(set, 10)
	if !ln.Dirty || ln.Meta.L2Code != 5 {
		t.Error("move lost dirty bit or metadata")
	}
	if l.LineAt(set, 2).Valid {
		t.Error("source way still valid after move")
	}
	if l.Stats.Movements.Value() != 1 {
		t.Error("movement not counted")
	}
}

func TestMoveDisplacedLineReturned(t *testing.T) {
	l := testLevel(false)
	a, b := mem.LineAddr(0), mem.LineAddr(256) // same set (256 sets)
	set := l.SetOf(a)
	if l.SetOf(b) != set {
		t.Fatal("test addresses must share a set")
	}
	l.Fill(set, 0, a, false, Meta{})
	l.Fill(set, 5, b, true, Meta{})
	displaced := l.Move(set, 0, 5)
	if !displaced.Valid || displaced.Addr != b || !displaced.Dirty {
		t.Errorf("displaced = %+v", displaced)
	}
}

func TestMovePanics(t *testing.T) {
	l := testLevel(false)
	l.Fill(0, 0, mem.LineAddr(0), false, Meta{})
	for name, f := range map[string]func(){
		"invalid source": func() { l.Move(0, 3, 4) },
		"self move":      func() { l.Move(0, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestReuseCounting(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(11)
	set := l.SetOf(a)
	l.Fill(set, 0, a, false, Meta{})
	for i := 0; i < 3; i++ {
		l.Access(a, false)
	}
	if got := l.LineAt(set, 0).Reuses; got != 3 {
		t.Errorf("Reuses = %d, want 3", got)
	}
	// Fill over it: the evicted copy carries the reuse count.
	ev := l.Fill(set, 0, mem.LineAddr(a+256), false, Meta{})
	if !ev.Valid || ev.Reuses != 3 {
		t.Errorf("evicted = %+v", ev)
	}
}

func TestTimestampRDEstimation(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(1)
	set := l.SetOf(a)
	l.Fill(set, 0, a, false, Meta{})
	// Touch many other lines to advance T by ~2 granules (granule = 256).
	for i := 0; i < 512; i++ {
		l.Access(mem.LineAddr(uint64(i)*999+7), false)
	}
	r := l.Access(a, false)
	if !r.Hit {
		t.Fatal("expected hit")
	}
	// T advanced 513 accesses ≈ 2 granules; the estimate is granular, so
	// accept [256, 1024).
	if r.RDLines < 256 || r.RDLines >= 1024 {
		t.Errorf("RDLines = %d, want ≈ 512", r.RDLines)
	}
}

func TestSublevelAndChunkMasks(t *testing.T) {
	l := testLevel(false)
	if l.SublevelMask(0) != RangeMask(0, 3) {
		t.Errorf("sublevel 0 mask = %v", l.SublevelMask(0))
	}
	if l.SublevelMask(2) != RangeMask(8, 15) {
		t.Errorf("sublevel 2 mask = %v", l.SublevelMask(2))
	}
	if l.ChunkMask(1, 2) != RangeMask(4, 15) {
		t.Errorf("chunk mask = %v", l.ChunkMask(1, 2))
	}
}

func TestInvalidate(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(77)
	l.Fill(l.SetOf(a), 3, a, true, Meta{})
	ln, ok := l.Invalidate(a)
	if !ok || !ln.Dirty || ln.Addr != a {
		t.Errorf("invalidate = %+v ok=%v", ln, ok)
	}
	if _, hit := l.Probe(a); hit {
		t.Error("line still resident after invalidate")
	}
	if _, ok := l.Invalidate(a); ok {
		t.Error("double invalidate succeeded")
	}
}

func TestForEachLine(t *testing.T) {
	l := testLevel(false)
	for i := 0; i < 5; i++ {
		a := mem.LineAddr(i * 1000)
		l.Fill(l.SetOf(a), i, a, false, Meta{})
	}
	n := 0
	l.ForEachLine(func(set, way int, ln Line) {
		if !ln.Valid {
			t.Error("visited invalid line")
		}
		n++
	})
	if n != 5 {
		t.Errorf("visited %d lines, want 5", n)
	}
}

func TestEvictionAccounting(t *testing.T) {
	l := testLevel(false)
	l.NoteEviction(true)
	l.NoteEviction(false)
	l.NoteBypass()
	if l.Stats.Evictions.Value() != 2 || l.Stats.Writebacks.Value() != 1 || l.Stats.Bypasses.Value() != 1 {
		t.Errorf("stats: %+v", l.Stats)
	}
	l.EvictionRead(15)
	if l.Stats.MovementPJ.PJ() != 50 {
		t.Errorf("eviction read = %v pJ, want 50", l.Stats.MovementPJ.PJ())
	}
}

func TestTotalPJSums(t *testing.T) {
	l := testLevel(true)
	a := mem.LineAddr(5)
	l.Fill(l.SetOf(a), 0, a, false, Meta{})
	l.Access(a, false)
	s := &l.Stats
	if s.TotalPJ() != s.AccessPJ.PJ()+s.MovementPJ.PJ()+s.MetadataPJ.PJ() {
		t.Error("TotalPJ does not sum components")
	}
}

func TestWritebackTo(t *testing.T) {
	l := testLevel(false)
	a := mem.LineAddr(31)
	set := l.SetOf(a)
	l.Fill(set, 6, a, false, Meta{})
	before := l.Stats.MovementPJ.PJ()
	if !l.WritebackTo(a) {
		t.Fatal("resident line not found for writeback")
	}
	ln := l.LineAt(set, 6)
	if !ln.Dirty {
		t.Error("writeback did not dirty the line")
	}
	// Way 6 is sublevel 1: 33 pJ write charged as movement energy.
	if got := l.Stats.MovementPJ.PJ() - before; got != 33 {
		t.Errorf("writeback energy = %v, want 33", got)
	}
	if l.WritebackTo(mem.LineAddr(9999)) {
		t.Error("writeback hit a non-resident line")
	}
}

func TestSwap(t *testing.T) {
	l := testLevel(false)
	a, b := mem.LineAddr(0), mem.LineAddr(256)
	set := l.SetOf(a)
	l.Fill(set, 0, a, true, Meta{L2Code: 1})
	l.Fill(set, 12, b, false, Meta{L2Code: 2})
	before := l.Stats.MovementPJ.PJ()
	l.Swap(set, 0, 12)
	// Swap reads and rewrites both lines: 2*(21+50) pJ.
	if got := l.Stats.MovementPJ.PJ() - before; got != 2*(21+50) {
		t.Errorf("swap energy = %v, want 142", got)
	}
	if w, _ := l.Probe(a); w != 12 {
		t.Errorf("line a at way %d after swap", w)
	}
	if w, _ := l.Probe(b); w != 0 {
		t.Errorf("line b at way %d after swap", w)
	}
	if !l.LineAt(set, 12).Dirty || l.LineAt(set, 0).Dirty {
		t.Error("dirty bits did not travel with the lines")
	}
	if l.Stats.Movements.Value() != 2 {
		t.Errorf("movements = %d, want 2", l.Stats.Movements.Value())
	}
}

func TestSwapPanics(t *testing.T) {
	l := testLevel(false)
	l.Fill(0, 0, mem.LineAddr(0), false, Meta{})
	for name, f := range map[string]func(){
		"self":    func() { l.Swap(0, 0, 0) },
		"invalid": func() { l.Swap(0, 0, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s swap did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStatsReset(t *testing.T) {
	l := testLevel(true)
	a := mem.LineAddr(5)
	l.Fill(l.SetOf(a), 0, a, false, Meta{})
	l.Access(a, false)
	l.Stats.Reset()
	if l.Stats.TotalPJ() != 0 || l.Stats.Hits.Value() != 0 || l.Stats.Fills.Value() != 0 {
		t.Error("Reset left residue")
	}
	// Cache contents survive a stats reset.
	if _, hit := l.Probe(a); !hit {
		t.Error("Reset dropped cache contents")
	}
}

func TestRRIPLevelConstruction(t *testing.T) {
	l := New(Config{Params: energy.L2Params45(), Bytes: 256 * mem.KB, UseRRIP: true})
	if l.Repl().Name() != "rrip" {
		t.Error("UseRRIP ignored")
	}
}

// wideParams returns hand-built uniform params for a level of the given
// way count in one sublevel.
func wideParams(ways int) *energy.LevelParams {
	p := &energy.LevelParams{
		Name:            "wide",
		SublevelWays:    []int{ways},
		SublevelPJ:      []float64{1},
		SublevelLatency: []int{1},
		WayAccessPJ:     make([]float64, ways),
		WayLatency:      make([]int, ways),
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

func TestNewRejectsMoreThan16Ways(t *testing.T) {
	for _, rrip := range []bool{false, true} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a 17-way level (rrip %v) did not panic", rrip)
				}
			}()
			New(Config{Params: wideParams(17), Bytes: 64 * 17 * mem.LineBytes, UseRRIP: rrip})
		}()
	}
}

// sameFingerprint returns n addresses of set that share one fingerprint
// byte but have distinct tags.
func sameFingerprint(l *Level, set, n int) []mem.LineAddr {
	first := mem.LineAddr(uint64(1)<<l.setBits | uint64(set))
	out := []mem.LineAddr{first}
	for tag := uint64(2); len(out) < n; tag++ {
		a := mem.LineAddr(tag<<l.setBits | uint64(set))
		if l.fingerprint(a) == l.fingerprint(first) {
			out = append(out, a)
		}
	}
	return out
}

// TestFingerprintCollisionsResolve fills one set with lines whose tags
// differ but whose fingerprints collide; every lookup must still resolve
// to the right way by its full address.
func TestFingerprintCollisionsResolve(t *testing.T) {
	l := testLevel(false)
	const set = 17
	as := sameFingerprint(l, set, 4)
	a, b, c, absent := as[0], as[1], as[2], as[3]
	l.Fill(set, 3, a, false, Meta{})
	l.Fill(set, 9, b, false, Meta{})
	l.Fill(set, 15, c, false, Meta{})
	for _, tc := range []struct {
		a   mem.LineAddr
		way int
	}{{a, 3}, {b, 9}, {c, 15}} {
		if r := l.Access(tc.a, false); !r.Hit || r.Way != tc.way {
			t.Errorf("Access(%#x) = hit %v way %d, want way %d", uint64(tc.a), r.Hit, r.Way, tc.way)
		}
		if w, hit := l.Probe(tc.a); !hit || w != tc.way {
			t.Errorf("Probe(%#x) = way %d hit %v, want way %d", uint64(tc.a), w, hit, tc.way)
		}
	}
	if _, hit := l.Probe(absent); hit {
		t.Error("an absent line with a colliding fingerprint hit")
	}
	if l.WritebackTo(absent) {
		t.Error("writeback matched an absent line with a colliding fingerprint")
	}
	if !l.WritebackTo(b) || !l.LineAt(set, 9).Dirty || l.LineAt(set, 3).Dirty || l.LineAt(set, 15).Dirty {
		t.Error("writeback dirtied the wrong colliding line")
	}
	if ln, ok := l.Invalidate(a); !ok || ln.Addr != a {
		t.Errorf("Invalidate(a) = %+v ok=%v", ln, ok)
	}
	// a's fingerprint byte is still in the row, but its way is invalid.
	if _, hit := l.Probe(a); hit {
		t.Error("invalidated line still hits through its stale fingerprint")
	}
	if w, hit := l.Probe(c); !hit || w != 15 {
		t.Errorf("Probe(c) after invalidating a = way %d hit %v", w, hit)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestFingerprintRowPadding runs a 12-way level, whose fingerprint rows
// are padded to 16 bytes: the padding bytes are zero, so an address whose
// fingerprint is zero must still miss and hit only real ways.
func TestFingerprintRowPadding(t *testing.T) {
	l := New(Config{Params: wideParams(12), Bytes: 64 * 12 * mem.LineBytes})
	const set = 5
	var zero mem.LineAddr
	for tag := uint64(1); ; tag++ {
		if a := mem.LineAddr(tag<<l.setBits | set); l.fingerprint(a) == 0 {
			zero = a
			break
		}
	}
	if _, hit := l.Probe(zero); hit {
		t.Fatal("a zero fingerprint hit an empty set's padding")
	}
	for w := 0; w < 12; w++ {
		l.Fill(set, w, mem.LineAddr(uint64(w+100)<<l.setBits|set), false, Meta{})
	}
	if _, hit := l.Probe(zero); hit {
		t.Error("a zero fingerprint hit a full set's padding")
	}
	for w := 0; w < 12; w++ {
		if got, hit := l.Probe(mem.LineAddr(uint64(w+100)<<l.setBits | set)); !hit || got != w {
			t.Errorf("way %d: probe = way %d hit %v", w, got, hit)
		}
	}
}

// TestDemotedMaskFollowsLines moves, swaps, refills and invalidates
// demoted lines and checks that VictimPrefer sees the demotion wherever
// the line went.
func TestDemotedMaskFollowsLines(t *testing.T) {
	l := testLevel(true)
	const set = 3
	for w := 0; w < 16; w++ {
		l.Fill(set, w, mem.LineAddr(uint64(w+1)<<l.setBits|set), false, Meta{})
	}
	near := RangeMask(0, 3)
	l.MarkDemoted(set, 2, true)
	if v := l.VictimPrefer(set, near); v != 2 {
		t.Errorf("victim = %d, want demoted way 2", v)
	}
	l.Swap(set, 2, 12) // the demoted line travels to way 12
	if v := l.VictimPrefer(set, near); v == 2 {
		t.Error("demotion stayed behind at way 2 after a swap")
	}
	if v := l.VictimPrefer(set, RangeMask(8, 15)); v != 12 {
		t.Errorf("victim = %d, want demoted way 12", v)
	}
	ln, _ := l.Invalidate(l.LineAt(set, 13).Addr)
	l.Move(set, 12, 13) // and on to way 13, the most recently used
	if v := l.VictimPrefer(set, RangeMask(13, 15)); v != 13 {
		t.Errorf("victim = %d, want demoted way 13", v)
	}
	l.Fill(set, 13, ln.Addr, false, Meta{}) // a fill is never demoted
	if got := l.demoted[set]; got != 0 {
		t.Errorf("demoted mask = %v after refill, want empty", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsCatchesCorruption breaks each mirrored structure in
// turn and requires CheckInvariants to report it.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	const set = 9
	for name, corrupt := range map[string]func(l *Level){
		"fingerprint":  func(l *Level) { l.fp[set*l.fpStride+1]++ },
		"valid mask":   func(l *Level) { l.valid[set] |= 1 << 7 },
		"demoted mask": func(l *Level) { l.demoted[set] |= 1 << 0 },
		"duplicate": func(l *Level) {
			l.lines[set*l.ways+1].Addr = l.lines[set*l.ways].Addr
			l.fp[set*l.fpStride+1] = l.fp[set*l.fpStride]
		},
		"recency word": func(l *Level) { l.repl.(*lru).order[set] ^= 1 },
	} {
		l := testLevel(false)
		for w := 0; w < 4; w++ {
			l.Fill(set, w, mem.LineAddr(uint64(w+1)<<l.setBits|set), false, Meta{})
		}
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean level fails: %v", name, err)
		}
		corrupt(l)
		if l.CheckInvariants() == nil {
			t.Errorf("%s corruption went unreported", name)
		}
	}
}

// TestSizeBytesCoversArrays pins the snapshot size charge to at least
// the arrays a clone copies.
func TestSizeBytesCoversArrays(t *testing.T) {
	l := testLevel(false)
	lines := 256 * 16
	if floor := lines*int(unsafe.Sizeof(Line{})) + lines + lines/16*8; l.SizeBytes() < floor {
		t.Errorf("SizeBytes = %d, below the %d bytes of lines, fingerprints and recency words", l.SizeBytes(), floor)
	}
	if got := unsafe.Sizeof(Line{}); got != 24 {
		t.Errorf("Line is %d bytes, want 24", got)
	}
}
