package policy

// DriverConfig carries the per-level parameters a Descriptor's constructor
// may need. Level is 2 or 3; NumSublevels is the level's sublevel count;
// Seed is the level's private RNG seed (already decorrelated per core).
type DriverConfig struct {
	Level        int
	NumSublevels int
	Seed         uint64
}

// Descriptor is one row of the policy table (hier.PolicyKind indexes it):
// the policy's canonical name, accepted aliases, the capability bits the
// hierarchy reads when it builds a system, and its constructor. Its JSON
// form is the /v1/policies wire shape.
type Descriptor struct {
	// Name is the canonical policy name ("slip+abp"); it is what String
	// renders, what canonical specs embed, and what hashes see.
	Name string `json:"name"`
	// Aliases are additional accepted spellings ("slip-abp", "slipabp").
	Aliases []string `json:"aliases,omitempty"`
	// Doc is a one-line description for -list-policies and /v1/policies.
	Doc string `json:"doc"`
	// UsesMetadata reports whether levels under this policy charge
	// 12b-metadata and movement-queue energy (every policy but baseline).
	UsesMetadata bool `json:"uses_metadata"`
	// UniformLatency reports whether hits cost the level's uniform
	// baseline latency rather than per-way latency.
	UniformLatency bool `json:"uniform_latency"`
	// SLIPMachinery reports whether the hierarchy must build the SLIP
	// support blocks (MMU sampling, EOU, PTE codes, distribution bins).
	SLIPMachinery bool `json:"slip_machinery"`
	// AllowABP admits the All-Bypass Policy into the EOU candidate pool
	// (meaningful only with SLIPMachinery).
	AllowABP bool `json:"allow_abp"`
	// EvalOrder places the policy in the paper's Section 5 comparison
	// figures (1-based presentation order); 0 keeps it out of the paper
	// figures (baseline, and policies added after publication).
	EvalOrder int `json:"eval_order,omitempty"`
	// New constructs one level's driver instance.
	New func(DriverConfig) Driver `json:"-"`
}
