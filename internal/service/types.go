// Package service implements slipd, the simulation-as-a-service daemon:
// an HTTP/JSON front end over the experiments engine with a bounded job
// queue (backpressure via 429), a worker pool, an LRU result store keyed
// by the canonical spec hashes, per-job deadlines and cancellation, and
// Prometheus-text metrics. See cmd/slipd for the binary.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/hier"
	"repro/internal/spec"
)

// RunRequest is the POST /v1/runs body: one declarative simulation spec
// (see internal/spec — the same JSON shape slipsim -spec consumes) plus
// service-level options. Zero-valued sizing fields inherit the server
// defaults.
type RunRequest struct {
	spec.Spec

	// TimeoutMS overrides the server's per-job deadline (capped by it).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Defaults are the sizing values stamped into unset request fields before
// key derivation, so a request that spells out the defaults and one that
// leaves them unset share one key.
type Defaults struct {
	Accesses uint64
	Warmup   *uint64 // nil = same as the (possibly defaulted) Accesses
	Seed     uint64
}

// applyDefaults stamps d into unset sizing fields, so equal effective
// requests share one result-store key.
func (r *RunRequest) applyDefaults(d Defaults) {
	if r.Accesses == 0 {
		r.Accesses = d.Accesses
	}
	if r.Warmup == nil {
		w := r.Accesses
		if d.Warmup != nil {
			w = *d.Warmup
		}
		r.Warmup = &w
	}
	if r.Seed == 0 {
		r.Seed = d.Seed
	}
}

// parseRunRequest is the POST /v1/runs parser. It decodes body strictly,
// requires workload and policy, stamps d into unset sizing fields and
// canonicalizes. It returns the request, the canonical spec the job will
// simulate and its content hash: the result-store key, identical to the
// experiments memo key for the same run, so every layer of the stack
// addresses one simulation one way.
func parseRunRequest(body []byte, d Defaults) (RunRequest, spec.Spec, string, error) {
	var req RunRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return RunRequest{}, spec.Spec{}, "", fmt.Errorf("bad request body: %v", err)
	}
	if req.Workload == "" || req.Policy == "" {
		return RunRequest{}, spec.Spec{}, "", errors.New("workload and policy are required")
	}
	req.applyDefaults(d)
	c, err := req.Spec.Canonical()
	if err != nil {
		return RunRequest{}, spec.Spec{}, "", err
	}
	return req, c, c.MustHash(), nil
}

// totalAccesses is what a run of canonical spec c drives: every core's
// warmup plus its measured window. A job's view and a cached POST both
// report it as total_accesses.
func totalAccesses(c spec.Spec) uint64 {
	return uint64(c.Cores) * (*c.Warmup + c.Accesses)
}

// RunResult is the flattened metrics of one finished simulation — the same
// quantities the paper's figures report — plus the canonical spec that
// produced them, so a stored result is reproducible from its own body.
type RunResult struct {
	Workload string `json:"workload"`
	Policy   string `json:"policy"`
	MixWith  string `json:"mix_with,omitempty"`
	Variant  string `json:"variant,omitempty"`
	Accesses uint64 `json:"accesses"`
	Warmup   uint64 `json:"warmup"`
	Seed     uint64 `json:"seed"`

	L1HitRate float64 `json:"l1_hit_rate"`
	L2HitRate float64 `json:"l2_hit_rate"`
	L3HitRate float64 `json:"l3_hit_rate"`

	CorePJ       float64 `json:"core_pj"`
	L1PJ         float64 `json:"l1_pj"`
	L2PJ         float64 `json:"l2_pj"`
	L3PJ         float64 `json:"l3_pj"`
	DRAMPJ       float64 `json:"dram_pj"`
	EOUPJ        float64 `json:"eou_pj"`
	FullSystemPJ float64 `json:"full_system_pj"`

	L2Misses          uint64 `json:"l2_misses"`
	L3Misses          uint64 `json:"l3_misses"`
	DRAMTraffic       uint64 `json:"dram_traffic"`
	DRAMDemandTraffic uint64 `json:"dram_demand_traffic"`

	Instrs uint64  `json:"instrs"`
	Cycles float64 `json:"cycles"`
	IPC    float64 `json:"ipc"`

	// Sampling is the set-sampling factor K of the run (absent for full
	// fidelity). When present, misses, traffic, energies and cycles above
	// are extrapolated (scaled by K) from the simulated 1/K sample;
	// SampledAccesses/SkippedAccesses report the raw split.
	Sampling        int    `json:"sampling,omitempty"`
	SampledAccesses uint64 `json:"sampled_accesses,omitempty"`
	SkippedAccesses uint64 `json:"skipped_accesses,omitempty"`

	SimSeconds float64 `json:"sim_seconds"`

	Spec spec.Spec `json:"spec"`
}

// Clone returns an independent deep copy: the struct is value-copied and
// the spec's pointer fields (Warmup, DRAM) are re-allocated, so mutating
// the clone can never reach the original. The result store hands out and
// retains only clones — cached entries are immutable from the outside.
func (r *RunResult) Clone() *RunResult {
	c := *r
	if r.Spec.Warmup != nil {
		w := *r.Spec.Warmup
		c.Spec.Warmup = &w
	}
	if r.Spec.DRAM != nil {
		d := *r.Spec.DRAM
		c.Spec.DRAM = &d
	}
	return &c
}

// hitRate guards the zero-access division.
func hitRate(hits, accesses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(hits) / float64(accesses)
}

// resultFrom flattens a finished run into the wire result. c must be
// the job's canonical spec.
func resultFrom(run *hier.Result, c spec.Spec, elapsed time.Duration) *RunResult {
	var l1Hits, l1Acc, l2Hits, l2Acc uint64
	for i := range run.Cores {
		core := &run.Cores[i]
		l1Hits += core.L1.Hits.Value()
		l1Acc += core.L1.Accesses.Value()
		l2Hits += core.L2.Hits.Value()
		l2Acc += core.L2.Accesses.Value()
	}
	res := &RunResult{
		Workload: c.Workload,
		Policy:   c.Policy,
		MixWith:  c.MixWith,
		Variant:  c.Variant(),
		Accesses: c.Accesses,
		Warmup:   *c.Warmup,
		Seed:     c.Seed,

		L1HitRate: hitRate(l1Hits, l1Acc),
		L2HitRate: hitRate(l2Hits, l2Acc),
		L3HitRate: hitRate(run.L3.Hits.Value(), run.L3.Accesses.Value()),

		// Scaled accessors return the raw values verbatim for full-fidelity
		// runs and K-extrapolated estimates for set-sampled ones, so one
		// wire shape covers both.
		CorePJ:       run.CorePJ(),
		L1PJ:         run.ScaledL1TotalPJ(),
		L2PJ:         run.ScaledL2TotalPJ(),
		L3PJ:         run.ScaledL3TotalPJ(),
		DRAMPJ:       run.ScaledDRAMPJ(),
		EOUPJ:        run.EOUPJ() * float64(run.SampleK()),
		FullSystemPJ: run.ScaledFullSystemPJ(),

		L2Misses:          run.ScaledL2Misses(true),
		L3Misses:          run.ScaledL3Misses(true),
		DRAMTraffic:       run.ScaledDRAMTraffic(),
		DRAMDemandTraffic: run.DRAMDemandTraffic() * uint64(run.SampleK()),

		Instrs: run.TotalInstrs(),
		Cycles: run.ScaledMaxCycles(),

		SimSeconds: elapsed.Seconds(),

		Spec: c,
	}
	if k := run.SampleK(); k > 1 {
		res.Sampling = k
		res.SampledAccesses = run.SampledAccesses
		res.SkippedAccesses = run.SkippedAccesses
	}
	if res.Cycles > 0 {
		res.IPC = float64(res.Instrs) / res.Cycles
	}
	return res
}

// JobState is the lifecycle of a queued run.
type JobState string

// The job states reported by GET /v1/runs/{id}.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateCancelled JobState = "cancelled"
	StateFailed    JobState = "failed"
)

// Job tracks one submitted run. State transitions happen under the
// server's mutex; progress is atomic so the simulating worker can update
// it without locking.
type Job struct {
	ID   string
	Key  string
	Req  RunRequest
	Spec spec.Spec // the canonical spec; Key is its hash

	State    JobState
	Result   *RunResult
	Error    string
	Created  time.Time
	Started  time.Time
	Finished time.Time

	// Total is the expected access count (warmup + measured, per core);
	// progress counts accesses already driven.
	Total    uint64
	progress atomic.Uint64
}

// JobView is the GET /v1/runs/{id} body (also returned by POST).
type JobView struct {
	ID       string     `json:"id,omitempty"`
	State    JobState   `json:"state"`
	Key      string     `json:"key"`
	Cached   bool       `json:"cached,omitempty"`
	Progress uint64     `json:"progress_accesses"`
	Total    uint64     `json:"total_accesses"`
	Error    string     `json:"error,omitempty"`
	Result   *RunResult `json:"result,omitempty"`
}

// view snapshots a job; call with the server mutex held.
func (j *Job) view() JobView {
	v := JobView{
		ID:       j.ID,
		State:    j.State,
		Key:      j.Key,
		Progress: j.progress.Load(),
		Total:    j.Total,
		Error:    j.Error,
		Result:   j.Result,
	}
	if v.State == StateCompleted {
		v.Progress = v.Total
	}
	return v
}
