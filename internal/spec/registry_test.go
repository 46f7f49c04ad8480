package spec

import (
	"strings"
	"testing"

	"repro/internal/hier"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestPolicyRegistryProjection proves the spec layer is a faithful
// projection of the policy table: every name and alias in it validates, canonicalizes to the canonical name, hashes stably, and
// builds a config that actually runs — with no spec-side list to drift.
func TestPolicyRegistryProjection(t *testing.T) {
	for _, name := range hier.PolicyNames() {
		k, err := hier.ParsePolicy(name)
		if err != nil {
			t.Fatalf("policy name %q does not parse: %v", name, err)
		}
		d := k.Descriptor()
		spellings := append([]string{d.Name}, d.Aliases...)
		var wantHash string
		for _, sp := range spellings {
			s := Spec{Workload: "milc", Policy: sp}
			if err := s.Validate(); err != nil {
				t.Errorf("Validate rejected spelling %q: %v", sp, err)
				continue
			}
			c, err := s.Canonical()
			if err != nil {
				t.Errorf("Canonical(%q): %v", sp, err)
				continue
			}
			if c.Policy != d.Name {
				t.Errorf("Canonical(%q).Policy = %q, want %q", sp, c.Policy, d.Name)
			}
			h, err := s.Hash()
			if err != nil {
				t.Errorf("Hash(%q): %v", sp, err)
				continue
			}
			if !strings.HasPrefix(h, "s1:") {
				t.Errorf("Hash(%q) = %q, want s1: prefix", sp, h)
			}
			// Aliases must not split the hash space: every spelling of one
			// policy is the same simulation.
			if wantHash == "" {
				wantHash = h
			} else if h != wantHash {
				t.Errorf("spelling %q hashes to %q, canonical %q to %q", sp, h, d.Name, wantHash)
			}
		}
		// Non-SLIP policies must shed the SLIP-only knobs in canonical form
		// (the clearing keeps their hashes stable as knobs are added).
		c, _ := Spec{Workload: "milc", Policy: d.Name, BinBits: 6, DisableSampling: true}.Canonical()
		if d.SLIPMachinery {
			if c.BinBits != 6 || !c.DisableSampling {
				t.Errorf("%s: SLIP knobs must survive canonicalization", d.Name)
			}
		} else if c.BinBits != 0 || c.DisableSampling {
			t.Errorf("%s: non-SLIP canonical form kept SLIP-only knobs (binbits=%d disable=%v)",
				d.Name, c.BinBits, c.DisableSampling)
		}
	}
}

// TestRegistryPoliciesBuildAndRun is the end-to-end proof at the spec
// layer: the later policies flow spec -> Canonical -> Build -> hier.New ->
// Run without any dispatch site naming them.
func TestRegistryPoliciesBuildAndRun(t *testing.T) {
	for _, name := range []string{"reuse-bypass", "lwrp"} {
		s := Spec{Workload: "milc", Policy: name, Accesses: 20_000}
		c, err := s.Canonical()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg, err := c.Build()
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		sys := hier.New(cfg)
		w, _ := workloads.ByName(c.Workload)
		sys.Run(trace.Limit(w.Build(c.Seed), c.Accesses))
		if sys.L2(0).Stats.Accesses.Value() == 0 {
			t.Errorf("%s: run drove no L2 accesses", name)
		}
		if sys.FullSystemPJ() <= 0 {
			t.Errorf("%s: no energy accounted", name)
		}
		if sys.MMU(0) != nil {
			t.Errorf("%s: non-SLIP policy built an MMU", name)
		}
	}
}
