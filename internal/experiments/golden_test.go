package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestExperimentGoldens renders every experiment, in presentation order,
// from one prefetched suite and pins the bytes; every run it memoized must
// keep its counter identities. The golden is slipbench's
// output for the same suite with its timing banners removed; re-record it,
// only for a change meant to alter results, with
//
//	go run ./cmd/slipbench -exp all -benchmarks milc,soplex -accesses 20000 \
//	  -warmup 20000 -seed 7 -parallel 1 | sed '/^\[.*\]$/,+1d' \
//	  > internal/experiments/testdata/experiments.golden
func TestExperimentGoldens(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "experiments.golden"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(Options{
		Accesses: 20_000, Warmup: 20_000, Seed: 7,
		Benchmarks: []string{"milc", "soplex"}, Parallelism: 2,
	})
	specs := s.SpecsForAll(ExperimentNames())
	s.Prefetch(specs)
	for _, sp := range specs {
		c := s.mustResolve(sp)
		if err := s.RunS(c).CheckWindow(c.Accesses); err != nil {
			t.Errorf("%s: %v", c.Label(), err)
		}
	}
	var got bytes.Buffer
	for _, name := range ExperimentNames() {
		if err := s.WithOut(&got).RunNamed(name); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiment tables changed:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
