package hier

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
)

// TestRunContextMatchesRun: the cancellation hook must not perturb the
// simulation — an uncancelled RunContext is bit-identical to Run.
func TestRunContextMatchesRun(t *testing.T) {
	const n = 150_000
	plain := New(Config{Policy: SLIPABP, Seed: 3})
	plain.Run(trace.Limit(mixedSource(3), n))

	hooked := New(Config{Policy: SLIPABP, Seed: 3})
	var reported uint64
	err := hooked.RunContext(context.Background(),
		func(done uint64) { reported = done },
		trace.Limit(mixedSource(3), n))
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if reported != n {
		t.Errorf("final progress %d, want %d", reported, n)
	}
	if a, b := plain.FullSystemPJ(), hooked.FullSystemPJ(); a != b {
		t.Errorf("energy %v (Run) != %v (RunContext)", a, b)
	}
	if a, b := plain.DRAMTraffic(), hooked.DRAMTraffic(); a != b {
		t.Errorf("DRAM traffic %d != %d", a, b)
	}
	if a, b := plain.MaxCycles(), hooked.MaxCycles(); a != b {
		t.Errorf("cycles %v != %v", a, b)
	}
}

// TestRunContextCancelStopsMidTrace: cancelling from the progress hook
// must abort the trace within one check stride.
func TestRunContextCancelStopsMidTrace(t *testing.T) {
	const n = 2_000_000
	ctx, cancel := context.WithCancel(context.Background())
	s := New(Config{Policy: Baseline, Seed: 3})
	err := s.RunContext(ctx,
		func(done uint64) { cancel() },
		trace.Limit(mixedSource(3), n))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	acc := s.L1(0).Stats.Accesses.Value()
	if acc == 0 {
		t.Error("no accesses simulated before cancellation")
	}
	if acc > 2*cancelCheckEvery {
		t.Errorf("ran %d accesses after cancel, want <= %d (one check stride)", acc, 2*cancelCheckEvery)
	}
}

// rewindable replays a fixed access slice and can be rewound without
// allocating, so an allocation count sees only RunContext's own.
type rewindable struct {
	accs []trace.Access
	pos  int
}

func (r *rewindable) NextBatch(dst []trace.Access) int {
	k := copy(dst, r.accs[r.pos:])
	r.pos += k
	return k
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestRunContextAllocs: once its pooled scratch is warm, a RunContext
// call allocates nothing of its own, on one core or, with its staged
// interleave, on two.
func TestRunContextAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under the race detector")
	}
	a := &rewindable{accs: trace.Collect(mixedSource(3), 10_000)}
	b := &rewindable{accs: trace.Collect(streamSource(4), 7_000)}
	for _, srcs := range [][]trace.Source{{a}, {a, b}} {
		s := New(Config{Policy: SLIPABP, NumCores: len(srcs), Seed: 1})
		run := func() {
			a.pos, b.pos = 0, 0
			_ = s.RunContext(context.Background(), nil, srcs...)
		}
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%d-core RunContext allocates %.1f times per call, want 0", len(srcs), avg)
		}
	}
}
