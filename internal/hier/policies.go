package hier

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/policy"
)

// PolicyKind indexes the policy table: the zero value is the baseline,
// and every naming, parsing and capability question reads the kind's
// table row.
type PolicyKind int

// The policies, in table order: the paper's Section 5 comparison set
// plus two later drivers.
const (
	Baseline PolicyKind = iota
	SLIP                // SLIP without the All-Bypass Policy
	SLIPABP             // SLIP with ABP in the candidate pool
	NuRAPID
	LRUPEA
	ReuseBypass // Reuse Detector insertion bypass
	LWRP        // least weighted reuse probability replacement
)

// newSLIP builds both SLIP rows' driver: ABP changes only which SLIPs the
// EOU may pick, which the AllowABP bit tells the hierarchy.
func newSLIP(cfg policy.DriverConfig) policy.Driver {
	return policy.NewSLIP(cfg.NumSublevels, cfg.Level)
}

// policies is the policy table, the one place a policy's name, aliases,
// capability bits and constructor are written. Adding a policy is a
// driver file in internal/policy, a constant above and a row here.
var policies = [...]policy.Descriptor{
	Baseline: {
		Name:           "baseline",
		Doc:            "conventional hierarchy: global LRU insertion, no movement, no metadata",
		UniformLatency: true,
		New:            func(policy.DriverConfig) policy.Driver { return policy.NewBaseline() },
	},
	SLIP: {
		Name:          "slip",
		Doc:           "SLIP reuse-predicted placement without the All-Bypass Policy",
		UsesMetadata:  true,
		SLIPMachinery: true,
		EvalOrder:     3,
		New:           newSLIP,
	},
	SLIPABP: {
		Name:          "slip+abp",
		Aliases:       []string{"slip-abp", "slipabp"},
		Doc:           "SLIP with the All-Bypass Policy in the EOU candidate pool",
		UsesMetadata:  true,
		SLIPMachinery: true,
		AllowABP:      true,
		EvalOrder:     4,
		New:           newSLIP,
	},
	NuRAPID: {
		Name:         "nurapid",
		Doc:          "NuRAPID distance associativity: nearest d-group insertion, outward demotion, promotion on hit",
		UsesMetadata: true,
		EvalOrder:    1,
		New:          func(policy.DriverConfig) policy.Driver { return policy.NewNuRAPID() },
	},
	LRUPEA: {
		Name:         "lru-pea",
		Aliases:      []string{"lrupea"},
		Doc:          "LRU-PEA: random capacity-weighted sublevel insertion, stepwise promotion, demoted-first eviction",
		UsesMetadata: true,
		EvalOrder:    2,
		New:          func(cfg policy.DriverConfig) policy.Driver { return policy.NewLRUPEA(cfg.Seed) },
	},
	ReuseBypass: {
		Name:           "reuse-bypass",
		Aliases:        []string{"reusebypass", "rd-bypass"},
		Doc:            "Reuse Detector bypass: lines whose observed reuse distance exceeds capacity skip insertion",
		UsesMetadata:   true,
		UniformLatency: true,
		New:            func(policy.DriverConfig) policy.Driver { return policy.NewReuseBypass() },
	},
	LWRP: {
		Name:           "lwrp",
		Doc:            "least weighted reuse probability: evict the line with the worst age/(1+reuses) score",
		UsesMetadata:   true,
		UniformLatency: true,
		New:            func(policy.DriverConfig) policy.Driver { return policy.NewLWRP() },
	},
}

// Descriptor returns the policy's table row (nil for an invalid handle).
func (p PolicyKind) Descriptor() *policy.Descriptor {
	if p < 0 || int(p) >= len(policies) {
		return nil
	}
	return &policies[p]
}

// String names the policy.
func (p PolicyKind) String() string {
	if d := p.Descriptor(); d != nil {
		return d.Name
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// IsSLIP reports whether the policy uses the SLIP machinery (MMU sampling,
// EOU, PTE codes).
func (p PolicyKind) IsSLIP() bool {
	d := p.Descriptor()
	return d != nil && d.SLIPMachinery
}

// PolicyNames lists the canonical policy names in table order.
func PolicyNames() []string {
	out := make([]string, len(policies))
	for i := range policies {
		out[i] = policies[i].Name
	}
	return out
}

// AllPolicies lists every policy's handle in table order.
func AllPolicies() []PolicyKind {
	out := make([]PolicyKind, len(policies))
	for i := range out {
		out[i] = PolicyKind(i)
	}
	return out
}

// ParsePolicy is the inverse of PolicyKind.String. It also accepts each
// policy's aliases ("slip-abp"/"slipabp" for slip+abp, "lrupea" for
// lru-pea) and is the single parser shared by CLI flags, spec files and
// the slipd wire format.
func ParsePolicy(name string) (PolicyKind, error) {
	for i := range policies {
		if d := &policies[i]; d.Name == name || slices.Contains(d.Aliases, name) {
			return PolicyKind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q (valid: %s)", name, strings.Join(PolicyNames(), ", "))
}
