package policy_test

import (
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/hier"
	"repro/internal/policy"
)

// The policy table lives beside hier.PolicyKind, which indexes it, but each
// row is a policy.Descriptor. These tests hold every row to the Descriptor
// contract, whatever the table lists; hier's TestPolicyTable pins the rows'
// values.

// rows returns the table's descriptors in table order.
func rows(t *testing.T) []*policy.Descriptor {
	t.Helper()
	var out []*policy.Descriptor
	for _, k := range hier.AllPolicies() {
		d := k.Descriptor()
		if d == nil {
			t.Fatalf("table handle %d has no row", int(k))
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		t.Fatal("the policy table is empty")
	}
	return out
}

// TestRegistryShape pins the order the rest of the repo builds on: the
// first row is PolicyKind's zero value, the baseline, and the rows with an
// EvalOrder, sorted by it, are the paper's Section 5 comparison order,
// numbered 1..n with no gap or repeat.
func TestRegistryShape(t *testing.T) {
	all := rows(t)
	if all[0].Name != "baseline" {
		t.Errorf("row 0 = %q, want the baseline", all[0].Name)
	}
	var eval []*policy.Descriptor
	for _, d := range all {
		if d.EvalOrder > 0 {
			eval = append(eval, d)
		}
	}
	slices.SortStableFunc(eval, func(a, b *policy.Descriptor) int { return a.EvalOrder - b.EvalOrder })
	want := []string{"nurapid", "lru-pea", "slip", "slip+abp"}
	if len(eval) != len(want) {
		t.Fatalf("%d rows carry an EvalOrder, want %d (%v)", len(eval), len(want), want)
	}
	for i, d := range eval {
		if d.Name != want[i] || d.EvalOrder != i+1 {
			t.Errorf("eval position %d = %q (EvalOrder %d), want %q (EvalOrder %d)", i, d.Name, d.EvalOrder, want[i], i+1)
		}
	}
}

// TestRegistryDescriptorBits holds every row's capability bits to their
// documented dependencies, and pins the wire names /v1/policies renders
// them under (the JSON is the Descriptor itself).
func TestRegistryDescriptorBits(t *testing.T) {
	for i, d := range rows(t) {
		if d.AllowABP && !d.SLIPMachinery {
			t.Errorf("%s: AllowABP without SLIPMachinery", d.Name)
		}
		if d.UsesMetadata != (i != 0) {
			t.Errorf("%s: UsesMetadata = %v; only the baseline goes without metadata", d.Name, d.UsesMetadata)
		}

		want := map[string]any{
			"name":            d.Name,
			"doc":             d.Doc,
			"uses_metadata":   d.UsesMetadata,
			"uniform_latency": d.UniformLatency,
			"slip_machinery":  d.SLIPMachinery,
			"allow_abp":       d.AllowABP,
		}
		if len(d.Aliases) > 0 {
			want["aliases"] = d.Aliases
		}
		if d.EvalOrder > 0 {
			want["eval_order"] = d.EvalOrder
		}
		// Round-trip the wire form through a map so both sides print with
		// sorted keys.
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		var wire map[string]any
		if err := json.Unmarshal(raw, &wire); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		got, _ := json.Marshal(wire)
		exp, _ := json.Marshal(want)
		if string(got) != string(exp) {
			t.Errorf("%s: wire form %s, want %s", d.Name, got, exp)
		}
	}
}

// TestRegisterRejectsCollisions holds the table to the rules a row must
// meet to be admitted: a non-empty name, a doc line and a constructor, and
// no spelling (canonical name or alias) used twice, within a row or across
// rows, so every spelling parses to exactly one policy.
func TestRegisterRejectsCollisions(t *testing.T) {
	owner := map[string]string{}
	for _, d := range rows(t) {
		if d.Name == "" || d.Doc == "" || d.New == nil {
			t.Errorf("row %q lacks a name, a doc line or a constructor", d.Name)
		}
		for _, s := range append([]string{d.Name}, d.Aliases...) {
			if s == "" {
				t.Errorf("%s: empty spelling", d.Name)
			}
			if prev, dup := owner[s]; dup {
				t.Errorf("spelling %q is claimed by %q and %q", s, prev, d.Name)
			}
			owner[s] = d.Name
		}
	}
}
