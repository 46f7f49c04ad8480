// Quickstart: simulate one benchmark under the regular hierarchy and under
// SLIP+ABP, and print the headline numbers of the paper — L2/L3 cache
// energy savings at equal performance.
package main

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func simulate(policy hier.PolicyKind) *hier.Result {
	// The mcf stand-in workload: pointer chasing over a large arc network,
	// with a phase whose working set develops locality.
	spec, _ := workloads.ByName("mcf")
	sys := hier.New(hier.Config{Policy: policy, Seed: 1})

	// Warm caches, TLB and the sampling state machine, then measure.
	src := spec.Build(1)
	sys.Run(trace.Limit(src, 2_000_000))
	sys.ResetStats()
	sys.Run(trace.Limit(src, 2_000_000))
	return sys.Result()
}

func main() {
	base := simulate(hier.Baseline)
	slip := simulate(hier.SLIPABP)

	fmt.Println("mcf, 2M measured accesses, Table 1/2 configuration")
	fmt.Printf("L2 energy:  %8.1f uJ -> %8.1f uJ  (%.1f%% saved)\n",
		base.L2TotalPJ()/1e6, slip.L2TotalPJ()/1e6,
		stats.Savings(base.L2TotalPJ(), slip.L2TotalPJ()))
	fmt.Printf("L3 energy:  %8.1f uJ -> %8.1f uJ  (%.1f%% saved)\n",
		base.L3TotalPJ()/1e6, slip.L3TotalPJ()/1e6,
		stats.Savings(base.L3TotalPJ(), slip.L3TotalPJ()))
	fmt.Printf("DRAM traffic: %d -> %d line transfers (%.1f%% less)\n",
		base.DRAMTraffic(), slip.DRAMTraffic(),
		stats.Savings(float64(base.DRAMTraffic()), float64(slip.DRAMTraffic())))
	fmt.Printf("speedup: %.2f%%\n", 100*(base.MaxCycles()/slip.MaxCycles()-1))

	cls := slip.InsertionClassFractions(2)
	fmt.Printf("L2 insertion policies: %.0f%% bypassed entirely, %.0f%% partial bypass, %.0f%% default\n",
		100*cls[0], 100*cls[1], 100*cls[2])
}
