// Package spec defines the canonical, declarative description of one
// simulation run — the single source of truth shared by the slipsim CLI,
// the experiments engine and the slipd daemon. A Spec says *what* to
// simulate (policy, workload or mix, sizing, technology, topology, config
// knobs) as plain data; Build compiles it into the hier.Config the
// simulator consumes, and Hash fingerprints its canonical form so every
// layer (the engine's memo cache, the daemon's LRU result store, on-disk
// artifacts) keys the same run the same way.
//
// Canonicalization makes behaviorally identical specs hash identically:
// policy aliases collapse to the canonical name, unset fields take the
// paper defaults they would resolve to anyway, and knobs that cannot
// affect the selected policy (bin width or sampling for non-SLIP runs)
// are cleared. The canonical JSON encoding — and therefore every hash —
// is a compatibility contract guarded by golden tests; changing it
// invalidates persisted result-store keys.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/energy"
	"repro/internal/hier"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Technology node names accepted by Spec.Tech.
const (
	Tech45 = "45nm"
	Tech22 = "22nm"
)

// DefaultAccesses and DefaultSeed are the sizing a spec takes when it
// leaves Accesses or Seed unset (Warmup then defaults to Accesses). CLI
// flags, experiments.Options and slipd all read them here.
const (
	DefaultAccesses = 2_000_000
	DefaultSeed     = 42
)

// Interconnect topology names accepted by Spec.Topology (Figure 4).
const (
	TopoWayInterleaved = "way-interleaved"
	TopoSetInterleaved = "set-interleaved"
	TopoHTree          = "h-tree"
)

// DRAMSpec overrides the main-memory model. Both fields are required when
// the block is present: a zero latency used to be silently replaced by the
// 45nm default while the energy term was kept, which made half-specified
// DRAM blocks a footgun — validation now rejects them outright.
type DRAMSpec struct {
	LatencyCycles int     `json:"latency_cycles"`
	PJPerBit      float64 `json:"pj_per_bit"`
}

// Spec is one declarative, hashable simulation description. The zero value
// of every optional field means "the paper default"; Canonical resolves
// those defaults explicitly.
//
// Field order is part of the canonical-JSON hash contract: new fields must
// be appended with omitempty semantics whose zero value is the canonical
// form of "absent", so existing specs keep their hashes.
type Spec struct {
	// Policy names a row of hier's policy table (hier.PolicyNames) by
	// its name or an alias; required.
	Policy string `json:"policy"`
	// Workload names the benchmark driving core 0; required.
	Workload string `json:"workload"`
	// MixWith, when set, names the benchmark driving the remaining cores
	// (the Figure 16 multiprogrammed setup); implies Cores >= 2.
	MixWith string `json:"mix_with,omitempty"`
	// Cores is the core count (private L1/L2 per core, shared L3).
	// Default 1, or 2 when MixWith is set. Cores > 1 without MixWith runs
	// the same workload on every core (independently seeded streams).
	Cores int `json:"cores,omitempty"`

	// Accesses is the measured per-core trace length (default 2M).
	Accesses uint64 `json:"accesses,omitempty"`
	// Warmup is the number of accesses replayed per core before the
	// statistics reset (nil = same as Accesses; zero = no warmup).
	Warmup *uint64 `json:"warmup,omitempty"`
	// Seed drives all randomness; core i's trace is seeded Seed+i
	// (default 42).
	Seed uint64 `json:"seed,omitempty"`

	// BinBits is the distribution counter width for SLIP policies
	// (default 4, the paper's width; max 8).
	BinBits uint8 `json:"bin_bits,omitempty"`
	// DisableSampling pins every page to the sampling state (the
	// always-fetch strawman of Section 4.2); SLIP policies only.
	DisableSampling bool `json:"disable_sampling,omitempty"`
	// UseRRIP switches the replacement policy to SRRIP (Section 7).
	UseRRIP bool `json:"use_rrip,omitempty"`

	// Tech selects the technology node (default 45nm).
	Tech string `json:"tech,omitempty"`
	// Topology selects the interconnect (default way-interleaved, the
	// asymmetric layout SLIP exploits).
	Topology string `json:"topology,omitempty"`

	// L2Bytes/L3Bytes size the caches (defaults 256KB / 2MB).
	L2Bytes uint64 `json:"l2_bytes,omitempty"`
	L3Bytes uint64 `json:"l3_bytes,omitempty"`
	// DRAM overrides the main-memory model (default: the node's model).
	DRAM *DRAMSpec `json:"dram,omitempty"`

	// Sampling enables the set-sampled fast path: only 1/K of the cache
	// sets are simulated and extrapolated statistics are scaled back by K.
	// Valid values are 1 (full fidelity, the canonical absent form), 2, 4,
	// 8 and 16. The sampled sets are a deterministic function of the spec
	// hash; see SampleSelection.
	Sampling int `json:"sampling,omitempty"`
}

// Single names the default single-core run of a workload under a policy.
func Single(wl string, p hier.PolicyKind) Spec {
	return Spec{Workload: wl, Policy: p.String()}
}

// ForMix names the two-core multiprogrammed run of a and b (Figure 16).
func ForMix(a, b string, p hier.PolicyKind) Spec {
	return Spec{Workload: a, MixWith: b, Policy: p.String()}
}

// Validate reports the first problem with the spec, phrased so the caller
// can fix it (unknown names list the valid alternatives).
func (s Spec) Validate() error {
	if s.Policy == "" {
		return fmt.Errorf("spec: policy is required (valid: %s)", strings.Join(hier.PolicyNames(), ", "))
	}
	if _, err := hier.ParsePolicy(s.Policy); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Workload == "" {
		return fmt.Errorf("spec: workload is required (valid workloads: %s)", strings.Join(workloads.Names(), ", "))
	}
	if _, ok := workloads.ByName(s.Workload); !ok {
		return fmt.Errorf("spec: unknown workload %q (valid workloads: %s)", s.Workload, strings.Join(workloads.Names(), ", "))
	}
	if s.MixWith != "" {
		if _, ok := workloads.ByName(s.MixWith); !ok {
			return fmt.Errorf("spec: unknown workload %q (valid workloads: %s)", s.MixWith, strings.Join(workloads.Names(), ", "))
		}
		if s.Cores == 1 {
			return fmt.Errorf("spec: mix_with requires cores >= 2 (got cores=1)")
		}
	}
	if s.Cores < 0 {
		return fmt.Errorf("spec: cores must be >= 1 (got %d)", s.Cores)
	}
	if s.Cores > hier.MaxCores {
		return fmt.Errorf("spec: cores must be <= %d (got %d): the address map has room for %d per-core regions below the page-profile region",
			hier.MaxCores, s.Cores, hier.MaxCores)
	}
	if err := CheckBinBits(uint(s.BinBits)); err != nil {
		return err
	}
	if err := CheckSizing(s.Accesses, s.Warmup); err != nil {
		return err
	}
	switch s.Tech {
	case "", Tech45, Tech22:
	default:
		return fmt.Errorf("spec: unknown tech %q (valid: %s, %s)", s.Tech, Tech45, Tech22)
	}
	switch s.Topology {
	case "", TopoWayInterleaved, TopoSetInterleaved, TopoHTree:
	default:
		return fmt.Errorf("spec: unknown topology %q (valid: %s, %s, %s)",
			s.Topology, TopoWayInterleaved, TopoSetInterleaved, TopoHTree)
	}
	switch s.Sampling {
	case 0, 1, 2, 4, 8, 16:
	default:
		return fmt.Errorf("spec: sampling must be one of 1, 2, 4, 8, 16 (got %d)", s.Sampling)
	}
	if s.DRAM != nil {
		if s.DRAM.LatencyCycles <= 0 {
			return fmt.Errorf("spec: dram.latency_cycles must be positive (got %d); "+
				"a partially-specified dram block is rejected rather than silently defaulted — set both fields or omit dram",
				s.DRAM.LatencyCycles)
		}
		if s.DRAM.PJPerBit <= 0 {
			return fmt.Errorf("spec: dram.pj_per_bit must be positive (got %v); "+
				"set both fields or omit dram to use the %s model", s.DRAM.PJPerBit, s.Tech)
		}
	}
	return nil
}

// CheckBinBits is Validate's bin_bits check, over a width a command line
// can check before narrowing it to the spec's uint8.
func CheckBinBits(bits uint) error {
	if bits > 8 {
		return fmt.Errorf("spec: bin_bits must be <= 8 (got %d; counters are uint8)", bits)
	}
	return nil
}

// MaxAccesses bounds a spec's per-core Accesses and Warmup, so that no
// access count a run derives can wrap: hier.MaxCores (15) cores x 2^41
// (warmup plus measured window) stays far below 2^64.
const MaxAccesses = 1 << 40

// CheckSizing is Validate's accesses/warmup check, for a command line to
// run on its -accesses and -warmup flags (a nil warmup means "same as
// accesses").
func CheckSizing(accesses uint64, warmup *uint64) error {
	if accesses > MaxAccesses {
		return fmt.Errorf("spec: accesses must be <= %d (got %d)", uint64(MaxAccesses), accesses)
	}
	if warmup != nil && *warmup > MaxAccesses {
		return fmt.Errorf("spec: warmup must be <= %d (got %d)", uint64(MaxAccesses), *warmup)
	}
	return nil
}

// techNode resolves the canonical tech name to its constants.
func techNode(name string) energy.TechNode {
	if name == Tech22 {
		return energy.Tech22()
	}
	return energy.Tech45()
}

// Canonical validates the spec and resolves every default, returning the
// normalized form whose JSON encoding defines the spec's identity. Two
// specs describing the same simulation canonicalize identically; knobs
// that cannot affect the selected policy are cleared so they cannot split
// the hash space.
func (s Spec) Canonical() (Spec, error) {
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	c := s
	p, _ := hier.ParsePolicy(c.Policy)
	c.Policy = p.String()
	if c.Cores == 0 {
		c.Cores = 1
		if c.MixWith != "" {
			c.Cores = 2
		}
	}
	if c.MixWith == c.Workload {
		// "Mixed with itself" is just a homogeneous multi-core run.
		c.MixWith = ""
	}
	if c.Accesses == 0 {
		c.Accesses = DefaultAccesses
	}
	if c.Warmup == nil {
		w := c.Accesses
		c.Warmup = &w
	} else {
		w := *c.Warmup // never alias the caller's pointer
		c.Warmup = &w
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if p.IsSLIP() {
		if c.BinBits == 0 {
			c.BinBits = 4 // the zero value already means 4-bit counters
		}
	} else {
		// Bin width and sampling only exist in the SLIP machinery; for
		// other policies they must not perturb the hash.
		c.BinBits = 0
		c.DisableSampling = false
	}
	if c.Tech == "" {
		c.Tech = Tech45
	}
	if c.Topology == "" {
		c.Topology = TopoWayInterleaved
	}
	if c.L2Bytes == 0 {
		c.L2Bytes = 256 * mem.KB
	}
	if c.L3Bytes == 0 {
		c.L3Bytes = 2 * mem.MB
	}
	if c.DRAM == nil {
		t := techNode(c.Tech)
		c.DRAM = &DRAMSpec{LatencyCycles: 100, PJPerBit: t.DRAMPJPerBit}
	} else {
		d := *c.DRAM
		c.DRAM = &d
	}
	if c.Sampling <= 1 {
		// sampling:1 IS the full-fidelity run; clearing it keeps the
		// hashes of every pre-sampling spec intact.
		c.Sampling = 0
	}
	return c, nil
}

// Hash returns the spec's canonical content hash — the key under which the
// experiments engine memoizes the run and the slipd store caches its
// result. Equal hashes mean bit-identical simulations.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("spec: encode for hashing: %w", err)
	}
	sum := sha256.Sum256(b)
	return "s1:" + hex.EncodeToString(sum[:]), nil
}

// MustHash is Hash for specs already known valid; it panics otherwise.
func (s Spec) MustHash() string {
	h, err := s.Hash()
	if err != nil {
		panic("spec: " + err.Error())
	}
	return h
}

// SampleGroups is the number of line-address groups the set-sampled fast
// path partitions the address space into: group = line-address mod 64,
// i.e. address bits 6..11. Every cache level in the hierarchy has at least
// 64 sets (power of two), so each group maps to an equal 1/64 slice of the
// sets at every level simultaneously — selecting 64/K groups selects
// exactly sets/K sample sets per level with one mask for the whole system.
const SampleGroups = 64

// splitmix64 is the PRNG behind sampled-set selection; the output sequence
// is a pure function of the seed, with no dependence on map iteration
// order, the host, or the Go version.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SampleSelection returns the sampling factor K and the 64-bit group mask
// (bit g set = line-address group g is simulated) for this spec. For a
// full-fidelity spec it returns (1, 0): the hot path treats a zero mask
// with K=1 as "sampling off".
//
// Selection is a deterministic pure function of the spec's canonical form
// with the measured window (Accesses) pinned — the exact projection the
// warm-state cache keys on — so a warm snapshot and every measured window
// that restores it agree on the sampled sets by construction.
func (s Spec) SampleSelection() (int, uint64, error) {
	c, err := s.Canonical()
	if err != nil {
		return 0, 0, err
	}
	k := c.Sampling
	if k <= 1 {
		return 1, 0, nil
	}
	c.Accesses = 1 // match the warm-cache key projection
	b, err := json.Marshal(c)
	if err != nil {
		return 0, 0, fmt.Errorf("spec: encode for sample selection: %w", err)
	}
	sum := sha256.Sum256(append(b, []byte("|sample-v1")...))
	seed := uint64(sum[0])<<56 | uint64(sum[1])<<48 | uint64(sum[2])<<40 |
		uint64(sum[3])<<32 | uint64(sum[4])<<24 | uint64(sum[5])<<16 |
		uint64(sum[6])<<8 | uint64(sum[7])

	// Fisher-Yates over the 64 groups, keep the first 64/K.
	var perm [SampleGroups]uint8
	for i := range perm {
		perm[i] = uint8(i)
	}
	for i := SampleGroups - 1; i > 0; i-- {
		j := int(splitmix64(&seed) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var mask uint64
	for _, g := range perm[:SampleGroups/k] {
		mask |= 1 << g
	}
	return k, mask, nil
}

// Build compiles the spec into the simulator configuration it denotes.
// The mapping reproduces the experiment suite's historical constructors
// bit for bit: the 45nm way-interleaved node uses the calibrated Table 1/2
// presets, other nodes and topologies derive their parameters from the
// geometry model exactly as the tech22/htree variants always did.
func (s Spec) Build() (hier.Config, error) {
	c, err := s.Canonical()
	if err != nil {
		return hier.Config{}, err
	}
	p, _ := hier.ParsePolicy(c.Policy)
	cfg := hier.Config{
		Policy:          p,
		NumCores:        c.Cores,
		Seed:            c.Seed,
		BinBits:         c.BinBits,
		DisableSampling: c.DisableSampling,
		UseRRIP:         c.UseRRIP,
		L2Bytes:         c.L2Bytes,
		L3Bytes:         c.L3Bytes,
		DRAM:            energy.DRAMParams{LatencyCycles: c.DRAM.LatencyCycles, PJPerBit: c.DRAM.PJPerBit},
	}
	if c.Sampling > 1 {
		k, mask, err := s.SampleSelection()
		if err != nil {
			return hier.Config{}, err
		}
		cfg.SampleK, cfg.SampleMask = k, mask
	}

	// Per-node metadata energies and sublevel latencies: the 22nm values
	// scale the 45nm ones as in the paper's technology study.
	metaL2, metaL3 := 1.0, 2.5
	if c.Tech == Tech22 {
		metaL2, metaL3 = 0.6, 1.5
	}
	sublevels := []int{4, 4, 8}
	grid2, grid3 := energy.L2Grid45(), energy.L3Grid45()
	if c.Tech == Tech22 {
		t := energy.Tech22()
		grid2, grid3 = grid2.WithTech(t), grid3.WithTech(t)
	}
	switch c.Topology {
	case TopoWayInterleaved:
		if c.Tech == Tech45 {
			// nil params: hier fills the calibrated Table 1/2 presets.
			break
		}
		cfg.L2Params = energy.ParamsFromGrid(grid2, sublevels, []int{4, 6, 8}, 7, metaL2)
		cfg.L3Params = energy.ParamsFromGrid(grid3, sublevels, []int{15, 19, 23}, 20, metaL3)
	case TopoHTree, TopoSetInterleaved:
		topo := energy.HTree
		if c.Topology == TopoSetInterleaved {
			topo = energy.HierBusSetInterleaved
		}
		cfg.L2Params = energy.UniformParams(grid2, topo, sublevels, 7, metaL2)
		cfg.L3Params = energy.UniformParams(grid3, topo, sublevels, 20, metaL3)
	}
	return cfg, nil
}

// Variant compactly names the spec's non-default configuration knobs — a
// human-readable label for tables and wire results, not a key ("" for the
// stock setup).
func (s Spec) Variant() string {
	c, err := s.Canonical()
	if err != nil {
		return ""
	}
	var parts []string
	if c.Tech != Tech45 {
		parts = append(parts, c.Tech)
	}
	if c.Topology != TopoWayInterleaved {
		parts = append(parts, c.Topology)
	}
	if c.BinBits != 0 && c.BinBits != 4 {
		parts = append(parts, fmt.Sprintf("bits%d", c.BinBits))
	}
	if c.DisableSampling {
		parts = append(parts, "nosample")
	}
	if c.UseRRIP {
		parts = append(parts, "rrip")
	}
	if c.L2Bytes != 256*mem.KB {
		parts = append(parts, fmt.Sprintf("l2=%dKB", c.L2Bytes/mem.KB))
	}
	if c.L3Bytes != 2*mem.MB {
		parts = append(parts, fmt.Sprintf("l3=%dKB", c.L3Bytes/mem.KB))
	}
	if c.Sampling > 1 {
		parts = append(parts, fmt.Sprintf("sample1/%d", c.Sampling))
	}
	return strings.Join(parts, "+")
}

// Label names the run for human consumption: workload (or mix), policy,
// and any variant knobs.
func (s Spec) Label() string {
	wl := s.Workload
	if s.MixWith != "" {
		wl = s.Workload + "+" + s.MixWith
	}
	l := wl + "/" + s.Policy
	if v := s.Variant(); v != "" {
		l += "/" + v
	}
	return l
}

// Parse decodes one spec from JSON, rejecting unknown fields so typos in
// hand-written spec files fail loudly instead of silently running the
// default configuration.
func Parse(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: decode: %w", err)
	}
	return s, nil
}

// EncodeJSON writes the spec's canonical form as indented JSON — the
// artifact slipsim -dump-spec emits and -spec consumes.
func (s Spec) EncodeJSON(w io.Writer) error {
	c, err := s.Canonical()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}
