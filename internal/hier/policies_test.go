package hier

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// TestPolicyTable pins the table the rest of the repo builds on: the
// constants' order (persisted numeric handles and the experiments'
// presentation order assume it), each row's capability bits and paper
// eval order, and that every name and alias parses back to its own row —
// so no two rows share a spelling.
func TestPolicyTable(t *testing.T) {
	cases := []struct {
		kind                                          PolicyKind
		name                                          string
		usesMeta, uniformLat, slipMachinery, allowABP bool
		evalOrder                                     int
	}{
		{Baseline, "baseline", false, true, false, false, 0},
		{SLIP, "slip", true, false, true, false, 3},
		{SLIPABP, "slip+abp", true, false, true, true, 4},
		{NuRAPID, "nurapid", true, false, false, false, 1},
		{LRUPEA, "lru-pea", true, false, false, false, 2},
		{ReuseBypass, "reuse-bypass", true, true, false, false, 0},
		{LWRP, "lwrp", true, true, false, false, 0},
	}
	if got, want := len(AllPolicies()), len(cases); got != want {
		t.Fatalf("table has %d policies, want %d", got, want)
	}
	for i, c := range cases {
		d := c.kind.Descriptor()
		if c.kind != PolicyKind(i) || d == nil || d.Name != c.name {
			t.Fatalf("row %d: kind %d, descriptor %+v; want %q", i, int(c.kind), d, c.name)
		}
		if d.UsesMetadata != c.usesMeta || d.UniformLatency != c.uniformLat ||
			d.SLIPMachinery != c.slipMachinery || d.AllowABP != c.allowABP || d.EvalOrder != c.evalOrder {
			t.Errorf("%s: bits = meta:%v lat:%v slip:%v abp:%v eval:%d, want meta:%v lat:%v slip:%v abp:%v eval:%d",
				c.name, d.UsesMetadata, d.UniformLatency, d.SLIPMachinery, d.AllowABP, d.EvalOrder,
				c.usesMeta, c.uniformLat, c.slipMachinery, c.allowABP, c.evalOrder)
		}
		if c.kind.IsSLIP() != c.slipMachinery {
			t.Errorf("%s: IsSLIP() = %v", c.name, c.kind.IsSLIP())
		}
		for _, n := range append([]string{d.Name}, d.Aliases...) {
			if k, err := ParsePolicy(n); n == "" || err != nil || k != c.kind {
				t.Errorf("%s: spelling %q parses to %v, %v", c.name, n, k, err)
			}
		}
	}
}

// TestPolicyRegistryProjection guards the projections of the table the
// rest of the repo reads: AllPolicies, PolicyNames, String and ParsePolicy
// all agree with the row each PolicyKind indexes, and invalid handles
// degrade without panicking and never parse back.
func TestPolicyRegistryProjection(t *testing.T) {
	kinds, names := AllPolicies(), PolicyNames()
	if len(kinds) != len(names) {
		t.Fatalf("AllPolicies has %d handles, PolicyNames %d names", len(kinds), len(names))
	}
	for i, k := range kinds {
		d := k.Descriptor()
		if k != PolicyKind(i) || d == nil || d.Name != names[i] || k.String() != names[i] {
			t.Fatalf("position %d: handle %d, descriptor %+v, String %q; want %q", i, int(k), d, k.String(), names[i])
		}
		if parsed, err := ParsePolicy(names[i]); err != nil || parsed != k {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", names[i], parsed, err, k)
		}
	}
	for _, bogus := range []PolicyKind{-1, PolicyKind(len(kinds)), PolicyKind(len(kinds) + 5)} {
		if bogus.Descriptor() != nil || bogus.IsSLIP() {
			t.Errorf("invalid handle %d resolved a descriptor", int(bogus))
		}
		if !strings.Contains(bogus.String(), "policy(") {
			t.Errorf("invalid handle String() = %q", bogus.String())
		}
		if _, err := ParsePolicy(bogus.String()); err == nil {
			t.Errorf("ParsePolicy accepted the invalid-handle rendering %q", bogus.String())
		}
	}
}

// FuzzParsePolicy checks name and alias parsing is a consistent round trip
// for arbitrary inputs: a name parses exactly when some row lists it (as
// canonical name or alias), and then its row's canonical name parses back
// to the same kind.
func FuzzParsePolicy(f *testing.F) {
	for _, n := range PolicyNames() {
		f.Add(n)
	}
	f.Add("slip-abp")
	f.Add("slipabp")
	f.Add("lrupea")
	f.Add("")
	f.Add("SLIP")
	f.Add("baseline ")
	for _, junk := range []string{"mru", "policy(3)", "slip+", "\x00", "baseline\n"} {
		f.Add(junk)
	}
	f.Fuzz(func(t *testing.T, name string) {
		listed := false
		for _, p := range AllPolicies() {
			d := p.Descriptor()
			listed = listed || d.Name == name || slices.Contains(d.Aliases, name)
		}
		k, err := ParsePolicy(name)
		if err != nil {
			if listed {
				t.Fatalf("ParsePolicy(%q) rejected a listed spelling: %v", name, err)
			}
			if !strings.HasPrefix(err.Error(), "unknown policy ") {
				t.Errorf("ParsePolicy(%q) error = %q", name, err)
			}
			return
		}
		d := k.Descriptor()
		if d == nil || !(d.Name == name || slices.Contains(d.Aliases, name)) {
			t.Fatalf("ParsePolicy(%q) -> %v, whose row lists neither the name nor an alias for it", name, k)
		}
		if k2, err := ParsePolicy(k.String()); err != nil || k2 != k {
			t.Errorf("canonical round trip broken: ParsePolicy(%q) -> %v, ParsePolicy(%q) -> %v, %v", name, k, k.String(), k2, err)
		}
	})
}

// TestParsePolicyErrorListsRegistry pins the unknown-name error: it
// renders the valid set from the policy table, so it can never drift from
// what actually parses.
func TestParsePolicyErrorListsRegistry(t *testing.T) {
	_, err := ParsePolicy("mru")
	if err == nil {
		t.Fatal("ParsePolicy(\"mru\") succeeded")
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list policy %q", err, name)
		}
	}
}

// TestRegistryPoliciesRunDeterministically drives every policy in the
// table — including the later drivers that no dispatch switch ever names —
// through the full hierarchy twice, at full fidelity and under set
// sampling, and requires bit-identical digests. Together with
// TestSnapshotRestoreBitIdentity (which ranges over the same table) this
// is the end-to-end proof for the reuse-bypass and lwrp drivers.
func TestRegistryPoliciesRunDeterministically(t *testing.T) {
	for _, p := range AllPolicies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			run := func(cfg Config) string {
				sys := New(cfg)
				sys.Run(trace.Limit(mixedSource(3), 150_000))
				return stateDigest(sys)
			}
			full := Config{Policy: p, Seed: 11}
			if a, b := run(full), run(full); a != b {
				t.Fatal("full-fidelity run is not deterministic")
			}
			sampled := Config{Policy: p, Seed: 11, SampleK: 4, SampleMask: 0x1111_1111_1111_1111}
			if a, b := run(sampled), run(sampled); a != b {
				t.Fatal("set-sampled run is not deterministic")
			}
		})
	}
}

// TestReuseBypassBypasses confirms the reuse-bypass driver actually
// exercises its seam: a cache-thrashing stream (loop far larger than L2)
// must produce L2 bypasses, and a cache-friendly stream must not.
func TestReuseBypassBypasses(t *testing.T) {
	// A loop of 2x the 256KB L2 thrashes it (every reuse distance ~8K
	// lines against 4K capacity) while still fitting twice inside the
	// detector's 4x-capacity epoch, so the second lap proves the distance.
	thrash := New(Config{Policy: ReuseBypass, Seed: 3})
	thrash.Run(trace.Limit(loopSource(9, 512*mem.KB), 300_000))
	if got := thrash.L2(0).Stats.Bypasses.Value(); got == 0 {
		t.Error("thrashing stream produced no L2 bypasses")
	}

	// A 64KB loop fits with room to spare: every proven distance is far
	// below capacity, so nothing may bypass.
	friendly := New(Config{Policy: ReuseBypass, Seed: 3})
	friendly.Run(trace.Limit(loopSource(9, 64*mem.KB), 100_000))
	if got := friendly.L2(0).Stats.Bypasses.Value(); got != 0 {
		t.Errorf("cache-friendly stream produced %d L2 bypasses", got)
	}
}

// TestLWRPKeepsReusedLines confirms the lwrp driver's scoring separates
// it from the baseline mechanically: under a mixed stream its victim
// choices must diverge from global LRU at some point (different digests),
// while the hierarchy's accounting stays consistent (no lost lines: fills
// = misses - bypasses at L2).
func TestLWRPKeepsReusedLines(t *testing.T) {
	run := func(p PolicyKind) *System {
		sys := New(Config{Policy: p, Seed: 5})
		sys.Run(trace.Limit(mixedSource(2), 200_000))
		return sys
	}
	lw, base := run(LWRP), run(Baseline)
	l2 := lw.L2(0)
	if l2.Stats.Fills.Value() != l2.Stats.Misses.Value() {
		t.Errorf("lwrp L2 fills %d != misses %d (lwrp never bypasses)",
			l2.Stats.Fills.Value(), l2.Stats.Misses.Value())
	}
	if lw.L2(0).Stats.Hits.Value() == base.L2(0).Stats.Hits.Value() &&
		lw.L3().Stats.Hits.Value() == base.L3().Stats.Hits.Value() {
		t.Error("lwrp behaved identically to baseline on a mixed stream")
	}
}
