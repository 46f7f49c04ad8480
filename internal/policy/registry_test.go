package policy

import (
	"strings"
	"testing"
)

// TestRegistryShape pins the rank assignments the rest of the repo builds
// on: hier.PolicyKind constants, persisted numeric handles and the
// experiments' presentation order all assume these exact slots.
func TestRegistryShape(t *testing.T) {
	want := []string{"baseline", "slip", "slip+abp", "nurapid", "lru-pea", "reuse-bypass", "lwrp"}
	if got := Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("registry names = %v, want %v", got, want)
	}
	if Count() != len(want) {
		t.Fatalf("Count() = %d, want %d", Count(), len(want))
	}
	for i, name := range want {
		d := ByIndex(i)
		if d == nil {
			t.Fatalf("rank %d is a hole", i)
		}
		if d.Name != name {
			t.Errorf("rank %d = %q, want %q", i, d.Name, name)
		}
	}
	// The paper's comparison order: nurapid, lru-pea, slip, slip+abp.
	wantEval := []int{3, 4, 1, 2}
	got := EvalRanks()
	if len(got) != len(wantEval) {
		t.Fatalf("EvalRanks() = %v, want %v", got, wantEval)
	}
	for i := range got {
		if got[i] != wantEval[i] {
			t.Fatalf("EvalRanks() = %v, want %v", got, wantEval)
		}
	}
}

// TestRegistryDescriptorBits pins the capability bits each driver
// registered — the values the hierarchy used to hard-code per enum value.
func TestRegistryDescriptorBits(t *testing.T) {
	cases := []struct {
		name                                          string
		usesMeta, uniformLat, slipMachinery, allowABP bool
	}{
		{"baseline", false, true, false, false},
		{"slip", true, false, true, false},
		{"slip+abp", true, false, true, true},
		{"nurapid", true, false, false, false},
		{"lru-pea", true, false, false, false},
		{"reuse-bypass", true, true, false, false},
		{"lwrp", true, true, false, false},
	}
	for _, c := range cases {
		_, d, ok := Resolve(c.name)
		if !ok {
			t.Fatalf("Resolve(%q) failed", c.name)
		}
		if d.UsesMetadata != c.usesMeta || d.UniformLatency != c.uniformLat ||
			d.SLIPMachinery != c.slipMachinery || d.AllowABP != c.allowABP {
			t.Errorf("%s: bits = meta:%v lat:%v slip:%v abp:%v, want meta:%v lat:%v slip:%v abp:%v",
				c.name, d.UsesMetadata, d.UniformLatency, d.SLIPMachinery, d.AllowABP,
				c.usesMeta, c.uniformLat, c.slipMachinery, c.allowABP)
		}
	}
}

// mustPanic runs f and fails the test unless it panics. Register
// validates before mutating, so every rejected call leaves the global
// registry untouched and these cases are safe to run in-process.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	f()
}

func TestRegisterRejectsCollisions(t *testing.T) {
	dummy := func(DriverConfig) Driver { return NewBaseline() }
	mustPanic(t, "duplicate rank", func() {
		Register(0, Descriptor{Name: "unique-policy-x", New: dummy})
	})
	mustPanic(t, "duplicate name", func() {
		Register(999, Descriptor{Name: "baseline", New: dummy})
	})
	mustPanic(t, "alias colliding with name", func() {
		Register(999, Descriptor{Name: "unique-policy-x", Aliases: []string{"slip"}, New: dummy})
	})
	mustPanic(t, "alias colliding with alias", func() {
		Register(999, Descriptor{Name: "unique-policy-x", Aliases: []string{"slipabp"}, New: dummy})
	})
	mustPanic(t, "self-colliding aliases", func() {
		Register(999, Descriptor{Name: "unique-policy-x", Aliases: []string{"y", "y"}, New: dummy})
	})
	mustPanic(t, "empty name", func() {
		Register(999, Descriptor{Name: "", New: dummy})
	})
	mustPanic(t, "nil constructor", func() {
		Register(999, Descriptor{Name: "unique-policy-x"})
	})
	mustPanic(t, "negative rank", func() {
		Register(-1, Descriptor{Name: "unique-policy-x", New: dummy})
	})
	// Nothing above may have mutated the registry.
	if Count() != 7 {
		t.Fatalf("rejected registrations mutated the registry: Count() = %d", Count())
	}
	if _, _, ok := Resolve("unique-policy-x"); ok {
		t.Fatal("rejected registration is resolvable")
	}
}

// FuzzResolve checks name/alias resolution is a consistent round trip for
// arbitrary inputs: any resolvable name maps to a descriptor that lists
// it (as canonical name or alias), and the canonical name resolves back
// to the same rank.
func FuzzResolve(f *testing.F) {
	for _, n := range Names() {
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
		rank, d, ok := Resolve(name)
		if !ok {
			return
		}
		if d == nil {
			t.Fatalf("Resolve(%q) ok with nil descriptor", name)
		}
		listed := d.Name == name
		for _, a := range d.Aliases {
			listed = listed || a == name
		}
		if !listed {
			t.Errorf("Resolve(%q) -> %q, which lists neither the name nor an alias for it", name, d.Name)
		}
		r2, d2, ok2 := Resolve(d.Name)
		if !ok2 || r2 != rank || d2.Name != d.Name {
			t.Errorf("canonical round trip broken: Resolve(%q) -> rank %d, Resolve(%q) -> rank %d ok=%v",
				name, rank, d.Name, r2, ok2)
		}
		if got := ByIndex(rank); got == nil || got.Name != d.Name {
			t.Errorf("ByIndex(%d) disagrees with Resolve(%q)", rank, name)
		}
	})
}
