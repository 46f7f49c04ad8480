// Command tracegen writes a synthetic benchmark trace to a binary file that
// slipsim can replay (-trace). Traces are deterministic for a given
// workload and seed.
//
// Usage:
//
//	tracegen -workload mcf -accesses 5000000 -seed 7 -o mcf.trc
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	var (
		wl   = flag.String("workload", "soplex", "benchmark name (see slipbench -list)")
		acc  = flag.Uint64("accesses", 2_000_000, "number of accesses to emit")
		seed = flag.Uint64("seed", 42, "random seed")
		out  = flag.String("o", "", "output file (default <workload>.trc)")
	)
	flag.Parse()

	spec, ok := workloads.ByName(*wl)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *wl)
		os.Exit(1)
	}
	path := *out
	if path == "" {
		path = *wl + ".trc"
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	src := trace.Limit(spec.Build(*seed), *acc)
	batch := make([]trace.Access, 4096)
	for {
		k := src.NextBatch(batch)
		for _, a := range batch[:k] {
			if err := w.Write(a); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		if k < len(batch) {
			break
		}
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	info, _ := os.Stat(path)
	fmt.Printf("wrote %d accesses to %s (%d bytes, %.2f B/access)\n",
		w.Count(), path, info.Size(), float64(info.Size())/float64(w.Count()))
}
