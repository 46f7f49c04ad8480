// Command slipsim runs one workload under one policy and prints a detailed
// report: hit rates, per-sublevel access fractions, energy breakdown,
// traffic and timing. It is the single-run companion to slipbench.
//
// Usage:
//
//	slipsim -workload soplex -policy slip+abp [-accesses N] [-warmup N]
//	        [-seed N] [-cores 2 -workload2 mcf] [-rrip] [-binbits 4]
//	        [-tech 22nm] [-topology h-tree] [-cpuprofile cpu.out]
//	        [-sampling 8]
//	slipsim -spec run.json                       # run a declarative spec file
//	slipsim -workload mcf -dump-spec             # print the canonical spec
//	slipsim -workload mcf -write-trace mcf.trc   # write a trace file
//	slipsim -trace mcf.trc -policy baseline      # replay a trace file
//	slipsim -list-policies                       # enumerate the policy table
//
// The flags and the -spec file describe the same canonical simulation spec
// (see internal/spec): -dump-spec prints the canonical JSON the flags
// denote, and that JSON round-trips through -spec (or POSTs to slipd)
// to reproduce the identical run — `slipsim -dump-spec | slipsim -spec
// /dev/stdin` is the identity. The run itself goes through the same
// experiments.Suite pipeline slipbench and slipd use.
//
// -warmup defaults to -accesses, as slipbench's does and as a spec file
// without a warmup canonicalizes.
//
// -write-trace writes core 0's first -accesses accesses of -workload at
// -seed to a binary trace file and exits without simulating. -trace
// replays such a file instead of generating the workload; every
// configuration flag applies except -warmup, since a replay has no warmup
// phase.
//
// -cpuprofile writes a pprof CPU profile covering warmup + measurement;
// inspect it with `go tool pprof -top cpu.out`.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hier"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// errUsage reports a command line slipsim refuses, after run has printed
// why on stderr. main exits 2 for it, as the flag package does.
var errUsage = errors.New("slipsim: bad command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes one slipsim command line, writing the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slipsim", flag.ContinueOnError)
	var (
		wl       = fs.String("workload", "soplex", "benchmark name (see slipbench -list)")
		wl2      = fs.String("workload2", "", "second core's benchmark (with -cores 2)")
		policyFl = fs.String("policy", "slip+abp",
			"policy name, one of: "+strings.Join(hier.PolicyNames(), "|")+" (see -list-policies)")
		acc      = fs.Uint64("accesses", spec.DefaultAccesses, "measured accesses")
		warm     = fs.Uint64("warmup", 0, "warmup accesses before stats reset (default: -accesses)")
		seed     = fs.Uint64("seed", spec.DefaultSeed, "random seed")
		cores    = fs.Int("cores", 1, "number of cores (private L2s, shared L3)")
		rrip     = fs.Bool("rrip", false, "use SRRIP replacement instead of LRU")
		binBits  = fs.Uint("binbits", 0, "distribution counter width (0 = default 4)")
		tech     = fs.String("tech", "", "technology node: 45nm (default) or 22nm")
		topology = fs.String("topology", "", "interconnect: way-interleaved (default), set-interleaved or h-tree")
		specIn   = fs.String("spec", "", "run a canonical spec JSON file instead of the flags ('-' for stdin)")
		dumpSpec = fs.Bool("dump-spec", false, "print the canonical spec JSON for the given flags and exit")
		traceIn  = fs.String("trace", "", "replay a binary trace file instead of a workload (no warmup phase)")
		traceOut = fs.String("write-trace", "", "write core 0's first -accesses accesses to this trace file and exit without simulating")
		sampling = fs.Int("sampling", 0, "set-sampling factor K: simulate 1/K of the cache sets and extrapolate (1 = full fidelity; valid: 1, 2, 4, 8, 16)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		listPol  = fs.Bool("list-policies", false, "list the registered policies with their metadata and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage // flag has printed the error and the usage
	}
	warmSet := false
	fs.Visit(func(f *flag.Flag) { warmSet = warmSet || f.Name == "warmup" })
	if *traceIn != "" && warmSet {
		fmt.Fprintln(fs.Output(), "-warmup does not apply to -trace: a replay has no warmup phase")
		return errUsage
	}
	if *traceIn != "" && *traceOut != "" {
		fmt.Fprintln(fs.Output(), "-write-trace and -trace are exclusive: write a trace or replay one")
		return errUsage
	}
	if err := spec.CheckBinBits(*binBits); err != nil {
		fmt.Fprintln(fs.Output(), err)
		return errUsage
	}

	if *listPol {
		listPolicies(stdout)
		return nil
	}

	// Resolve the run description: a spec file, or the flags translated
	// into the same declarative form.
	var sp spec.Spec
	if *specIn != "" {
		f := os.Stdin
		if *specIn != "-" {
			var err error
			if f, err = os.Open(*specIn); err != nil {
				return err
			}
			defer f.Close()
		}
		var err error
		if sp, err = spec.Parse(f); err != nil {
			return err
		}
	} else {
		sp = spec.Spec{
			Policy:   *policyFl,
			Workload: *wl,
			MixWith:  *wl2,
			Cores:    *cores,
			Accesses: *acc,
			Seed:     *seed,
			BinBits:  uint8(*binBits),
			UseRRIP:  *rrip,
			Tech:     *tech,
			Topology: *topology,
			Sampling: *sampling,
		}
		if warmSet {
			sp.Warmup = warm
		}
	}

	if *dumpSpec {
		return sp.EncodeJSON(stdout)
	}

	// The canonical spec, not sp, is what runs: it pins warmup = accesses
	// for a spec file that leaves warmup out, where the Suite would stamp
	// in its own default.
	c, err := sp.Canonical()
	if err != nil {
		return err
	}
	if *traceOut != "" {
		return writeTraceFile(stdout, *traceOut, c)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var res *hier.Result
	if *traceIn != "" {
		res, err = replay(*traceIn, c)
	} else {
		// One run in a one-off process never hits the trace cache, so it
		// stays off.
		suite := experiments.NewSuite(experiments.Options{
			Parallelism:     1,
			TraceCacheBytes: -1,
		})
		res, err = suite.RunSpecContext(context.Background(), c)
	}
	if err != nil {
		return err
	}
	report(stdout, res)
	return nil
}

// listPolicies renders the policy table: every run-nable policy with its
// aliases and capability bits, straight from the rows the simulator
// itself dispatches on.
func listPolicies(w io.Writer) {
	tb := stats.NewTable("Registered policies", "name", "aliases", "metadata", "latency", "machinery", "description")
	for _, p := range hier.AllPolicies() {
		d := p.Descriptor()
		meta, lat, mach := "none", "per-way", "-"
		if d.UsesMetadata {
			meta = "12b sidecar"
		}
		if d.UniformLatency {
			lat = "uniform"
		}
		if d.SLIPMachinery {
			mach = "MMU+EOU"
			if d.AllowABP {
				mach = "MMU+EOU+ABP"
			}
		}
		tb.AddRow(d.Name, strings.Join(d.Aliases, ","), meta, lat, mach, d.Doc)
	}
	fmt.Fprintln(w, tb.String())
}

// writeTraceFile writes the first c.Accesses accesses of core 0's stream (the
// workload at the spec seed) to path in the trace file format.
func writeTraceFile(stdout io.Writer, path string, c spec.Spec) error {
	wl, _ := workloads.ByName(c.Workload) // canonical specs name valid workloads
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	src := trace.Limit(wl.Build(c.Seed), c.Accesses)
	batch := make([]trace.Access, 4096)
	for {
		k := src.NextBatch(batch)
		for _, a := range batch[:k] {
			if err := w.Write(a); err != nil {
				return err
			}
		}
		if k < len(batch) {
			break
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d accesses to %s (%d bytes, %.2f B/access)\n",
		w.Count(), path, info.Size(), float64(info.Size())/float64(w.Count()))
	return nil
}

// replay drives a trace file through the single-core system c
// describes. There is no warmup: statistics cover the first c.Accesses
// accesses of the file. A malformed record among them is an error.
func replay(path string, c spec.Spec) (*hier.Result, error) {
	if c.Cores != 1 {
		return nil, errors.New("-trace replay supports one core")
	}
	cfg, err := c.Build()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, err
	}
	sys := hier.New(cfg)
	sys.Run(trace.Limit(r, c.Accesses))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return sys.Result(), nil
}

// report prints the run's per-level, energy, traffic and timing summary.
func report(w io.Writer, res *hier.Result) {
	cfg := res.Config
	fmt.Fprintf(w, "policy: %s, cores: %d\n\n", cfg.Policy, cfg.NumCores)

	tb := stats.NewTable("Per-level summary", "level", "accesses", "hit rate", "access pJ", "movement pJ", "metadata pJ", "total uJ")
	for c := 0; c < cfg.NumCores; c++ {
		l1, l2 := &res.Cores[c].L1, &res.Cores[c].L2
		tb.AddRow(fmt.Sprintf("core%d L1", c),
			fmt.Sprintf("%d", l1.Accesses.Value()),
			fmt.Sprintf("%.1f%%", stats.Pct(float64(l1.Hits.Value()), float64(l1.Accesses.Value()))),
			fmt.Sprintf("%.0f", l1.AccessPJ.PJ()),
			fmt.Sprintf("%.0f", l1.MovementPJ.PJ()),
			"-",
			fmt.Sprintf("%.1f", l1.TotalPJ()/1e6))
		tb.AddRow(fmt.Sprintf("core%d L2", c),
			fmt.Sprintf("%d", l2.Accesses.Value()),
			fmt.Sprintf("%.1f%%", stats.Pct(float64(l2.Hits.Value()), float64(l2.Accesses.Value()))),
			fmt.Sprintf("%.0f", l2.AccessPJ.PJ()),
			fmt.Sprintf("%.0f", l2.MovementPJ.PJ()),
			fmt.Sprintf("%.0f", l2.MetadataPJ.PJ()),
			fmt.Sprintf("%.1f", l2.TotalPJ()/1e6))
	}
	l3 := &res.L3
	tb.AddRow("L3",
		fmt.Sprintf("%d", l3.Accesses.Value()),
		fmt.Sprintf("%.1f%%", stats.Pct(float64(l3.Hits.Value()), float64(l3.Accesses.Value()))),
		fmt.Sprintf("%.0f", l3.AccessPJ.PJ()),
		fmt.Sprintf("%.0f", l3.MovementPJ.PJ()),
		fmt.Sprintf("%.0f", l3.MetadataPJ.PJ()),
		fmt.Sprintf("%.1f", l3.TotalPJ()/1e6))
	fmt.Fprintln(w, tb.String())

	f2 := res.SublevelHitFractions(2)
	f3 := res.SublevelHitFractions(3)
	fmt.Fprintf(w, "L2 sublevel hit shares: %.1f%% / %.1f%% / %.1f%%\n", 100*f2[0], 100*f2[1], 100*f2[2])
	fmt.Fprintf(w, "L3 sublevel hit shares: %.1f%% / %.1f%% / %.1f%%\n\n", 100*f3[0], 100*f3[1], 100*f3[2])

	if cfg.Policy.IsSLIP() {
		cls2 := res.InsertionClassFractions(2)
		cls3 := res.InsertionClassFractions(3)
		fmt.Fprintf(w, "L2 insertions: ABP %.1f%%, partial %.1f%%, default %.1f%%, other %.1f%%\n",
			100*cls2[0], 100*cls2[1], 100*cls2[2], 100*cls2[3])
		fmt.Fprintf(w, "L3 insertions: ABP %.1f%%, partial %.1f%%, default %.1f%%, other %.1f%%\n",
			100*cls3[0], 100*cls3[1], 100*cls3[2], 100*cls3[3])
		var hits, misses, fetches, writes, runs uint64
		for c := range res.Cores {
			m := &res.Cores[c].MMU
			hits += m.TLBHits.Value()
			misses += m.TLBMisses.Value()
			fetches += m.ProfileFetches.Value()
			writes += m.ProfileWrites.Value()
			runs += m.PolicyRecomputs.Value()
		}
		fmt.Fprintf(w, "TLB: %d hits, %d misses; profile fetches %d, writebacks %d; EOU runs %d (%.0f pJ)\n\n",
			hits, misses, fetches, writes, runs, res.EOUPJ())
	}

	d := &res.DRAM
	fmt.Fprintf(w, "DRAM: %d reads, %d writes, %d metadata transfers, %.1f uJ\n",
		d.Reads.Value(), d.Writes.Value(),
		d.MetadataReads.Value()+d.MetadataWrites.Value(),
		res.DRAMPJ()/1e6)
	for c := 0; c < cfg.NumCores; c++ {
		fmt.Fprintf(w, "core%d: %d instrs, %.0f cycles, IPC %.2f\n",
			c, res.Instrs(c), res.Cycles(c), res.IPC(c))
	}
	fmt.Fprintf(w, "full-system dynamic energy: %.1f uJ\n", res.FullSystemPJ()/1e6)
	if k := res.SampleK(); k > 1 {
		fmt.Fprintf(w, "\nset sampling 1/%d: %d accesses simulated, %d skipped\n",
			k, res.SampledAccesses, res.SkippedAccesses)
		fmt.Fprintf(w, "extrapolated (x%d): L2 misses %d, L3 misses %d, DRAM traffic %d, "+
			"energy %.1f uJ, cycles %.0f, EDP %.3g pJ*cyc\n",
			k, res.ScaledL2Misses(true), res.ScaledL3Misses(true), res.ScaledDRAMTraffic(),
			res.ScaledFullSystemPJ()/1e6, res.ScaledMaxCycles(), res.ScaledEDP())
	}
}
