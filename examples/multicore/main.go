// Multicore: the Figure 16 setup — two cores with private 256KB L2s and a
// shared 2MB L3, running a multiprogrammed mix. Shared-LLC reuse distances
// are longer, so SLIP bypasses more lines and saves more LLC energy than in
// the single-core case.
package main

import (
	"fmt"

	"repro/internal/hier"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func simulate(policy hier.PolicyKind, mix workloads.Mix) *hier.Result {
	a, _ := workloads.ByName(mix.A)
	b, _ := workloads.ByName(mix.B)
	sys := hier.New(hier.Config{Policy: policy, NumCores: 2, Seed: 9})
	sa, sb := a.Build(9), b.Build(10)
	sys.Run(trace.Limit(sa, 1_500_000), trace.Limit(sb, 1_500_000))
	sys.ResetStats()
	// Statistics cover only the window where both benchmarks run.
	sys.Run(trace.Limit(sa, 1_500_000), trace.Limit(sb, 1_500_000))
	return sys.Result()
}

func main() {
	mix := workloads.Mix{A: "soplex", B: "mcf"}
	base := simulate(hier.Baseline, mix)
	slip := simulate(hier.SLIPABP, mix)

	fmt.Printf("mix %s on 2 cores (private L2s, shared 2MB L3)\n\n", mix.Name())
	fmt.Printf("shared L3 energy: %8.1f uJ -> %8.1f uJ  (%.1f%% saved)\n",
		base.L3TotalPJ()/1e6, slip.L3TotalPJ()/1e6,
		stats.Savings(base.L3TotalPJ(), slip.L3TotalPJ()))
	fmt.Printf("L2+L3 energy:     %8.1f uJ -> %8.1f uJ  (%.1f%% saved)\n",
		(base.L2TotalPJ()+base.L3TotalPJ())/1e6,
		(slip.L2TotalPJ()+slip.L3TotalPJ())/1e6,
		stats.Savings(base.L2TotalPJ()+base.L3TotalPJ(), slip.L2TotalPJ()+slip.L3TotalPJ()))
	fmt.Printf("DRAM traffic:     %d -> %d transfers (%.1f%% less)\n\n",
		base.DRAMTraffic(), slip.DRAMTraffic(),
		stats.Savings(float64(base.DRAMTraffic()), float64(slip.DRAMTraffic())))

	for c := 0; c < 2; c++ {
		name := mix.A
		if c == 1 {
			name = mix.B
		}
		fmt.Printf("core%d (%s): IPC %.2f -> %.2f, %d L2 accesses\n",
			c, name, base.IPC(c), slip.IPC(c), slip.Cores[c].L2.Accesses.Value())
	}
	f3 := slip.SublevelHitFractions(3)
	fmt.Printf("\nshared L3 hit shares by sublevel under SLIP+ABP: %.0f%% / %.0f%% / %.0f%%\n",
		100*f3[0], 100*f3[1], 100*f3[2])
}
