package spec

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func uptr(v uint64) *uint64 { return &v }

// TestValidate covers each rejection branch; every error must name the
// offending field and, where a closed set exists, the valid alternatives.
func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		in   Spec
		want string // substring of the error ("" = valid)
	}{
		{"valid minimal", Spec{Workload: "milc", Policy: "baseline"}, ""},
		{"valid alias", Spec{Workload: "milc", Policy: "slip-abp"}, ""},
		{"valid mix", Spec{Workload: "milc", MixWith: "sphinx3", Policy: "slip"}, ""},
		{"valid kitchen sink", Spec{Workload: "mcf", Policy: "slip+abp", Cores: 4,
			Accesses: 1000, Warmup: uptr(0), Seed: 9, BinBits: 8, DisableSampling: true,
			UseRRIP: true, Tech: Tech22, Topology: TopoHTree, L2Bytes: 1 << 20,
			DRAM: &DRAMSpec{LatencyCycles: 80, PJPerBit: 11}}, ""},
		{"missing policy", Spec{Workload: "milc"}, "policy is required"},
		{"unknown policy", Spec{Workload: "milc", Policy: "mru"}, "slip+abp"},
		{"missing workload", Spec{Policy: "baseline"}, "workload is required"},
		{"unknown workload", Spec{Workload: "nonesuch", Policy: "baseline"}, "soplex"},
		{"unknown mix workload", Spec{Workload: "milc", MixWith: "nonesuch", Policy: "baseline"}, "nonesuch"},
		{"mix on one core", Spec{Workload: "milc", MixWith: "sphinx3", Policy: "baseline", Cores: 1}, "cores >= 2"},
		{"negative cores", Spec{Workload: "milc", Policy: "baseline", Cores: -2}, "cores"},
		{"most cores the address map holds", Spec{Workload: "milc", Policy: "baseline", Cores: 15}, ""},
		{"core region over the profile region", Spec{Workload: "milc", Policy: "baseline", Cores: 16}, "cores must be <= 15"},
		{"bin bits too wide", Spec{Workload: "milc", Policy: "slip", BinBits: 9}, "bin_bits"},
		{"most accesses", Spec{Workload: "milc", Policy: "baseline",
			Accesses: MaxAccesses, Warmup: uptr(MaxAccesses)}, ""},
		{"accesses past the bound", Spec{Workload: "milc", Policy: "baseline",
			Accesses: MaxAccesses + 1}, "accesses must be <= 1099511627776"},
		{"warmup past the bound", Spec{Workload: "milc", Policy: "baseline",
			Warmup: uptr(MaxAccesses + 1)}, "warmup must be <= 1099511627776"},
		{"unknown tech", Spec{Workload: "milc", Policy: "baseline", Tech: "7nm"}, "22nm"},
		{"unknown topology", Spec{Workload: "milc", Policy: "baseline", Topology: "mesh"}, "way-interleaved"},
		{"dram missing latency", Spec{Workload: "milc", Policy: "baseline",
			DRAM: &DRAMSpec{PJPerBit: 11}}, "latency_cycles"},
		{"dram missing energy", Spec{Workload: "milc", Policy: "baseline",
			DRAM: &DRAMSpec{LatencyCycles: 80}}, "pj_per_bit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.in.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCanonicalDedups: spellings of the same simulation must canonicalize
// (and therefore hash) identically.
func TestCanonicalDedups(t *testing.T) {
	base := Spec{Workload: "milc", Policy: "slip+abp"}
	same := []struct {
		name string
		in   Spec
	}{
		{"policy alias slip-abp", Spec{Workload: "milc", Policy: "slip-abp"}},
		{"policy alias slipabp", Spec{Workload: "milc", Policy: "slipabp"}},
		{"explicit default cores", Spec{Workload: "milc", Policy: "slip+abp", Cores: 1}},
		{"explicit default bin bits", Spec{Workload: "milc", Policy: "slip+abp", BinBits: 4}},
		{"explicit default sizing", Spec{Workload: "milc", Policy: "slip+abp",
			Accesses: 2_000_000, Warmup: uptr(2_000_000), Seed: 42}},
		{"explicit default tech and topology", Spec{Workload: "milc", Policy: "slip+abp",
			Tech: Tech45, Topology: TopoWayInterleaved}},
		{"explicit default sizes and dram", Spec{Workload: "milc", Policy: "slip+abp",
			L2Bytes: 256 * mem.KB, L3Bytes: 2 * mem.MB,
			DRAM: &DRAMSpec{LatencyCycles: 100, PJPerBit: 20}}},
	}
	want := base.MustHash()
	for _, tc := range same {
		if got := tc.in.MustHash(); got != want {
			t.Errorf("%s: hash %s != base %s", tc.name, got, want)
		}
	}

	// Knobs that cannot affect a non-SLIP run must not split its hash.
	plain := Spec{Workload: "milc", Policy: "baseline"}
	knobbed := Spec{Workload: "milc", Policy: "baseline", BinBits: 6, DisableSampling: true}
	if plain.MustHash() != knobbed.MustHash() {
		t.Error("SLIP-only knobs split the hash of a baseline run")
	}
	// But they must split a SLIP run's hash.
	if base.MustHash() == (Spec{Workload: "milc", Policy: "slip+abp", BinBits: 6}).MustHash() {
		t.Error("bin_bits did not change a SLIP run's hash")
	}

	// A self-mix is a homogeneous 2-core run.
	selfMix := Spec{Workload: "milc", MixWith: "milc", Policy: "baseline"}
	homog := Spec{Workload: "milc", Policy: "baseline", Cores: 2}
	if selfMix.MustHash() != homog.MustHash() {
		t.Error("milc+milc mix hashes differently from the 2-core milc run")
	}

	// Distinct simulations must stay distinct.
	distinct := []Spec{
		{Workload: "milc", Policy: "baseline"},
		{Workload: "milc", Policy: "slip"},
		{Workload: "soplex", Policy: "baseline"},
		{Workload: "milc", Policy: "baseline", Seed: 7},
		{Workload: "milc", Policy: "baseline", Accesses: 1000},
		{Workload: "milc", Policy: "baseline", Warmup: uptr(0)},
		{Workload: "milc", Policy: "baseline", Tech: Tech22},
		{Workload: "milc", Policy: "baseline", Topology: TopoHTree},
		{Workload: "milc", MixWith: "sphinx3", Policy: "baseline"},
	}
	seen := map[string]int{}
	for i, s := range distinct {
		h := s.MustHash()
		if j, dup := seen[h]; dup {
			t.Errorf("specs %d and %d collide on %s", i, j, h)
		}
		seen[h] = i
	}
}

// TestCanonicalDoesNotAliasWarmup: canonicalization must copy the warmup
// pointer, never share it with the input spec.
func TestCanonicalDoesNotAliasWarmup(t *testing.T) {
	w := uint64(500)
	in := Spec{Workload: "milc", Policy: "baseline", Warmup: &w}
	c, err := in.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Warmup == &w {
		t.Fatal("canonical spec aliases the caller's warmup pointer")
	}
	w = 999
	if *c.Warmup != 500 {
		t.Errorf("canonical warmup changed to %d after caller mutation", *c.Warmup)
	}
}

// TestGoldenHashes pins the canonical-JSON hash contract. These values are
// persisted in slipd result stores and memo caches across releases: if
// this test fails, the canonical encoding changed, which invalidates every
// stored key — bump the "s1:" prefix instead of updating the constants.
func TestGoldenHashes(t *testing.T) {
	golden := map[string]string{
		"baseline-default": "s1:378c02c68065eb87d055d8a33430045d28cc5926ec1427bb3c8fecf32faef04e",
		"slipabp-default":  "s1:145f866b41642a1bbb6c4894695234219f7a1ca0a5e8b4d63c82a7d48ac781f7",
		"mix":              "s1:5b7cca136da319494e885f9b8e771bc8eef378209cc16d81cd4707448079ee5f",
		"tech22":           "s1:8063c22fc811f4ba9355ac98e5e65038db4ac8d2db200a062fb36250c80a79b1",
		"htree":            "s1:89b770bddb8b8812275ae7c8e708106c04d61f4d01dc46b1a3f33c73d42f5a22",
		"sized":            "s1:af531c1dd3fc55185047927e9ae9402a7a5bf6c7ed45454302a14acd9f1993d6",
	}
	specs := map[string]Spec{
		"baseline-default": Single("milc", hier.Baseline),
		"slipabp-default":  Single("soplex", hier.SLIPABP),
		"mix":              ForMix("milc", "sphinx3", hier.SLIPABP),
		"tech22":           {Workload: "mcf", Policy: "slip+abp", Tech: Tech22},
		"htree":            {Workload: "milc", Policy: "baseline", Topology: TopoHTree},
		"sized": {Workload: "milc", Policy: "slip", Accesses: 50_000, Warmup: uptr(0), Seed: 7,
			BinBits: 3, UseRRIP: true, L2Bytes: 512 * mem.KB,
			DRAM: &DRAMSpec{LatencyCycles: 80, PJPerBit: 11}},
	}
	for name, want := range golden {
		if got := specs[name].MustHash(); got != want {
			t.Errorf("%s: hash %s, want golden %s — the canonical encoding changed; "+
				"this breaks persisted store keys", name, got, want)
		}
	}
}

// TestJSONRoundTrip: canonical JSON must decode back to the identical
// canonical spec (and hence the identical hash).
func TestJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{Workload: "milc", Policy: "baseline"},
		{Workload: "soplex", Policy: "slip-abp", BinBits: 6, UseRRIP: true},
		{Workload: "milc", MixWith: "sphinx3", Policy: "slip+abp", Cores: 3},
		{Workload: "mcf", Policy: "slip", Tech: Tech22, Topology: TopoHTree,
			Accesses: 1000, Warmup: uptr(0), Seed: 9,
			DRAM: &DRAMSpec{LatencyCycles: 80, PJPerBit: 11}},
	}
	for i, s := range specs {
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var buf bytes.Buffer
		if err := s.EncodeJSON(&buf); err != nil {
			t.Fatalf("spec %d: encode: %v", i, err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("spec %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(back, c) {
			t.Errorf("spec %d: round trip changed the spec:\n got %+v\nwant %+v", i, back, c)
		}
		if back.MustHash() != s.MustHash() {
			t.Errorf("spec %d: round trip changed the hash", i)
		}
	}
}

// TestParseRejectsUnknownFields: typos in hand-written spec files must fail
// loudly instead of silently running the default configuration.
func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"workload":"milc","policy":"baseline","acesses":5}`))
	if err == nil || !strings.Contains(err.Error(), "acesses") {
		t.Fatalf("Parse accepted a misspelled field: %v", err)
	}
}

// FuzzHashRoundTrip: for any JSON that parses and validates, the canonical
// encoding must re-parse to the same hash — encode/decode can never move a
// spec to a different memo key.
func FuzzHashRoundTrip(f *testing.F) {
	f.Add([]byte(`{"workload":"milc","policy":"baseline"}`))
	f.Add([]byte(`{"workload":"soplex","policy":"slip-abp","bin_bits":6,"use_rrip":true}`))
	f.Add([]byte(`{"workload":"milc","mix_with":"sphinx3","policy":"slip","cores":3,"seed":9}`))
	f.Add([]byte(`{"workload":"mcf","policy":"slip+abp","tech":"22nm","topology":"h-tree","accesses":1000,"warmup":0,"dram":{"latency_cycles":80,"pj_per_bit":11}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		h1, err := s.Hash()
		if err != nil {
			t.Skip() // invalid spec: rejection is the correct behavior
		}
		var buf bytes.Buffer
		if err := s.EncodeJSON(&buf); err != nil {
			t.Fatalf("valid spec failed to encode: %v", err)
		}
		back, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("canonical JSON does not re-parse: %v\n%s", err, buf.String())
		}
		h2, err := back.Hash()
		if err != nil {
			t.Fatalf("re-parsed canonical spec invalid: %v", err)
		}
		if h1 != h2 {
			t.Fatalf("round trip moved the hash: %s -> %s\ninput: %s", h1, h2, data)
		}
	})
}

// legacy45 reproduces the pre-spec inline constructors for the default,
// htree, tech22, bits and nosample variants — the reference Build must
// match parameter for parameter.
func legacy45(p hier.PolicyKind, seed uint64, variant string, bits uint8) hier.Config {
	cfg := hier.Config{Policy: p, Seed: seed}
	switch variant {
	case "htree":
		cfg.L2Params = energy.UniformParams(energy.L2Grid45(), energy.HTree, []int{4, 4, 8}, 7, 1)
		cfg.L3Params = energy.UniformParams(energy.L3Grid45(), energy.HTree, []int{4, 4, 8}, 20, 2.5)
	case "22nm":
		t := energy.Tech22()
		cfg.L2Params = energy.ParamsFromGrid(energy.L2Grid45().WithTech(t), []int{4, 4, 8}, []int{4, 6, 8}, 7, 0.6)
		cfg.L3Params = energy.ParamsFromGrid(energy.L3Grid45().WithTech(t), []int{4, 4, 8}, []int{15, 19, 23}, 20, 1.5)
		cfg.DRAM = energy.DRAMParams{LatencyCycles: 100, PJPerBit: t.DRAMPJPerBit}
	case "bits":
		cfg.BinBits = bits
	case "nosample":
		cfg.DisableSampling = true
	}
	return cfg
}

// TestBuildMatchesLegacyConfigs: the spec Build path must produce systems
// bit-identical to the experiment suite's historical inline constructors.
// Simulating a short trace through both configurations and comparing exact
// energies/traffic is the strongest equivalence check available.
func TestBuildMatchesLegacyConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates several short runs")
	}
	const seed, accesses = 7, 30_000
	mkSpec := func(p hier.PolicyKind, variant string, bits uint8) Spec {
		s := Single("milc", p)
		s.Seed = seed
		s.Accesses = accesses
		s.Warmup = uptr(0)
		switch variant {
		case "htree":
			s.Topology = TopoHTree
		case "22nm":
			s.Tech = Tech22
		case "bits":
			s.BinBits = bits
		case "nosample":
			s.DisableSampling = true
		}
		return s
	}
	cases := []struct {
		name    string
		policy  hier.PolicyKind
		variant string
		bits    uint8
	}{
		{"default baseline", hier.Baseline, "", 0},
		{"default slip+abp", hier.SLIPABP, "", 0},
		{"default nurapid", hier.NuRAPID, "", 0},
		{"default lru-pea", hier.LRUPEA, "", 0},
		{"htree", hier.Baseline, "htree", 0},
		{"tech22 slip+abp", hier.SLIPABP, "22nm", 0},
		{"bits3", hier.SLIPABP, "bits", 3},
		{"nosample", hier.SLIPABP, "nosample", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := mkSpec(tc.policy, tc.variant, tc.bits).Build()
			if err != nil {
				t.Fatal(err)
			}
			got := driveMilc(t, cfg, seed, accesses)
			want := driveMilc(t, legacy45(tc.policy, seed, tc.variant, tc.bits), seed, accesses)
			if got.full != want.full {
				t.Errorf("full-system energy %v != legacy %v", got.full, want.full)
			}
			if got.l2 != want.l2 || got.l3 != want.l3 {
				t.Errorf("L2/L3 energy %v/%v != legacy %v/%v", got.l2, got.l3, want.l2, want.l3)
			}
			if got.dram != want.dram {
				t.Errorf("DRAM traffic %d != legacy %d", got.dram, want.dram)
			}
			if got.cycles != want.cycles {
				t.Errorf("cycles %v != legacy %v", got.cycles, want.cycles)
			}
		})
	}
}

type simNumbers struct {
	full, l2, l3, cycles float64
	dram                 uint64
}

func driveMilc(t *testing.T, cfg hier.Config, seed uint64, accesses uint64) simNumbers {
	t.Helper()
	wl, ok := workloads.ByName("milc")
	if !ok {
		t.Fatal("milc workload missing")
	}
	sys := hier.New(cfg)
	sys.Run(trace.Limit(wl.Build(seed), accesses))
	r := sys.Result()
	return simNumbers{
		full:   r.FullSystemPJ(),
		l2:     r.L2TotalPJ(),
		l3:     r.L3TotalPJ(),
		cycles: r.MaxCycles(),
		dram:   r.DRAMTraffic(),
	}
}
