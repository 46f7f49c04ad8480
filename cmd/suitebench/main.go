// Command suitebench writes the two result artifacts the docs cite:
//
//   - a cross-policy comparison of every policy in the policy table (the
//     paper's comparison set and the later additions) over the
//     matrix benchmarks: mean energy/EDP with savings vs baseline, written
//     to BENCH_policies.json plus a markdown table (BENCH_policies.md)
//     that EXPERIMENTS.md embeds.
//
//   - a set-sampling calibration of the fig9 matrix: full fidelity vs.
//     each sampling factor, with wall-clock speedup and the extrapolation
//     error of per-level miss ratios, energy and EDP, written to
//     BENCH_sampling.json.
//
// Simulator speed is measured by the repository benchmark (perfbench/),
// not here.
//
// Usage:
//
//	suitebench [-accesses N] [-warmup N] [-benchmarks a,b,c] [-parallel N]
//	           [-policies-out BENCH_policies.json] [-policies-md BENCH_policies.md]
//	           [-sampling-factors 2,4,8,16] [-sampling-benchmarks a,b,c]
//	           [-sampling-out BENCH_sampling.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

// samplingArtifact is the JSON schema of BENCH_sampling.json: the
// calibration report plus the host context it was measured under.
type samplingArtifact struct {
	experiments.SamplingReport
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
}

func main() {
	var (
		acc      = flag.Uint64("accesses", 150_000, "measured accesses per matrix run")
		warm     = flag.Uint64("warmup", 150_000, "warmup accesses per matrix run")
		benches  = flag.String("benchmarks", "soplex,milc,sphinx3,mcf", "benchmark set for the cross-policy comparison")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size")
		sampleO  = flag.String("sampling-out", "BENCH_sampling.json", "set-sampling calibration output JSON path (empty skips the pass)")
		sampleF  = flag.String("sampling-factors", "2,4,8,16", "comma-separated sampling factors for the calibration pass")
		sampleB  = flag.String("sampling-benchmarks", "", "benchmark set for the calibration pass (default: all, the fig9 matrix)")
		policyO  = flag.String("policies-out", "BENCH_policies.json", "cross-policy comparison output JSON path (empty skips the pass)")
		policyMD = flag.String("policies-md", "BENCH_policies.md", "cross-policy comparison markdown table path (empty skips the table)")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "suitebench: "+format+"\n", args...)
		os.Exit(2)
	}
	if *parallel <= 0 {
		fail("-parallel must be >= 1 (got %d)", *parallel)
	}
	if *acc == 0 {
		fail("-accesses must be > 0")
	}
	benchSet := strings.Split(*benches, ",")
	if *benches == "" {
		fail("-benchmarks must name at least one benchmark")
	}
	for _, b := range benchSet {
		if _, ok := workloads.ByName(b); !ok {
			fail("unknown benchmark %q (see slipbench -list)", b)
		}
	}
	sampleSet := workloads.Names()
	var sampleFactors []int
	if *sampleO != "" {
		for _, f := range strings.Split(*sampleF, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || k < 2 {
				fail("-sampling-factors must list integers >= 2 (got %q)", f)
			}
			sampleFactors = append(sampleFactors, k)
		}
		if *sampleB != "" {
			sampleSet = strings.Split(*sampleB, ",")
			for _, b := range sampleSet {
				if _, ok := workloads.ByName(b); !ok {
					fail("unknown sampling benchmark %q (see slipbench -list)", b)
				}
			}
		}
	}

	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	writeJSON := func(path string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		check(err)
		check(os.WriteFile(path, append(data, '\n'), 0o644))
		fmt.Printf("wrote %s\n", path)
	}
	opts := experiments.Options{
		Accesses:    *acc,
		Warmup:      *warm,
		WarmupSet:   true,
		Seed:        7,
		Benchmarks:  benchSet,
		Parallelism: *parallel,
	}

	if *policyO != "" {
		// Cross-policy comparison: every policy in the table — not just the
		// paper's comparison set — over the matrix benchmarks, summarized as
		// mean energy/EDP with savings vs baseline. This is the table
		// EXPERIMENTS.md embeds and the CI policy-matrix job uploads.
		cmp, err := experiments.ComparePolicies(context.Background(), opts)
		check(err)
		fmt.Printf("cross-policy comparison (%d policies x %d benchmarks):\n%s",
			len(cmp.Rows), len(cmp.Benchmarks), cmp.Markdown())
		writeJSON(*policyO, cmp)
		if *policyMD != "" {
			check(os.WriteFile(*policyMD, []byte(cmp.Markdown()), 0o644))
			fmt.Printf("wrote %s\n", *policyMD)
		}
	}

	if *sampleO != "" {
		// Set-sampling calibration: the fig9 matrix at full fidelity, then
		// at each factor, with per-metric extrapolation error and speedup.
		sOpts := opts
		sOpts.Benchmarks = sampleSet
		rep, err := experiments.CalibrateSetSampling(context.Background(), sOpts, sampleFactors)
		check(err)
		fmt.Printf("sampling calibration (%d runs over %s): full pass %.1fs\n",
			rep.Runs, strings.Join(sampleSet, ","), rep.FullWallSeconds)
		for _, f := range rep.Factors {
			fmt.Printf("  1/%-2d  %6.2fx speedup  miss-ratio err L2 %.2f%% / L3 %.2f%%  energy %.2f%%  EDP %.2f%% (mean abs)\n",
				f.Factor, f.Speedup, f.L2MissRatio.MeanAbsPct, f.L3MissRatio.MeanAbsPct,
				f.EnergyPJ.MeanAbsPct, f.EDP.MeanAbsPct)
		}
		writeJSON(*sampleO, samplingArtifact{
			SamplingReport: *rep,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			NumCPU:         runtime.NumCPU(),
		})
	}
}
