package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// reportCases are the runs whose reports testdata pins, each with its
// measured window: cores x accesses.
var reportCases = []struct {
	name            string
	cores, accesses uint64
	args            []string
}{
	{"slipabp", 1, 40000, []string{"-workload", "soplex", "-policy", "slip+abp", "-accesses", "40000", "-warmup", "40000"}},
	{"mix", 2, 20000, []string{"-workload", "milc", "-workload2", "mcf", "-cores", "2", "-accesses", "20000", "-warmup", "20000"}},
	{"sampling8", 1, 40000, []string{"-workload", "sphinx3", "-sampling", "8", "-accesses", "40000", "-warmup", "40000"}},
	// A spec file without warmup canonicalizes to warmup = accesses;
	// the Suite's own default (2M) would change the report.
	{"nowarmup", 1, 50000, []string{"-spec", filepath.Join("testdata", "nowarmup.json")}},
}

// TestReportGoldens pins slipsim's report byte for byte. Re-record a
// golden, only for a change meant to alter results, with
// `go run ./cmd/slipsim <args> > cmd/slipsim/testdata/<name>.golden`.
func TestReportGoldens(t *testing.T) {
	for _, tc := range reportCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runOK(t, tc.args...); got != string(want) {
				t.Errorf("slipsim %v report changed:\n--- got\n%s--- want\n%s", tc.args, got, want)
			}
		})
	}
}

// TestTLBLineCoversTheWindow reads the TLB line of every pinned report, a
// warmed one, the 2-core mix and a set-sampled one among them: it must
// count every core's measured window and nothing of the warmup. So the
// TLBs looked up cores x accesses pages (set sampling skips none), and the
// printed EOU energy is two optimizations per EOU run.
func TestTLBLineCoversTheWindow(t *testing.T) {
	for _, tc := range reportCases {
		out := runOK(t, tc.args...)
		i := strings.Index(out, "TLB: ")
		if i < 0 {
			t.Fatalf("slipsim %v printed no TLB line:\n%s", tc.args, out)
		}
		var hits, misses, fetches, writes, runs uint64
		var pj float64
		if _, err := fmt.Sscanf(out[i:], "TLB: %d hits, %d misses; profile fetches %d, writebacks %d; EOU runs %d (%f pJ)",
			&hits, &misses, &fetches, &writes, &runs, &pj); err != nil {
			t.Fatalf("slipsim %v: TLB line: %v", tc.args, err)
		}
		if got, want := hits+misses, tc.cores*tc.accesses; got != want {
			t.Errorf("slipsim %v: TLB lookups %d, want cores x accesses = %d", tc.args, got, want)
		}
		if want := math.Round(float64(runs) * 2 * energy.EOUOpPJ); pj != want {
			t.Errorf("slipsim %v: EOU energy %v pJ, want %d runs x 2 x %v pJ = %v", tc.args, pj, runs, energy.EOUOpPJ, want)
		}
	}
}

// TestTraceReplayHonoursFlags checks that a replay is built from the full
// spec: the technology node changes the report, and -warmup, which a
// replay has no phase for, is refused.
func TestTraceReplayHonoursFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "milc.trc")
	writeTrace(t, path, "milc", 20000)

	base := []string{"-trace", path, "-accesses", "20000"}
	at45 := runOK(t, base...)
	at22 := runOK(t, append(base, "-tech", "22nm")...)
	if at45 == at22 {
		t.Error("-tech 22nm replay printed the 45nm report")
	}

	err := run(append(base, "-warmup", "0"), io.Discard)
	if !errors.Is(err, errUsage) {
		t.Errorf("-trace with -warmup: err = %v, want a usage error", err)
	}
}

// TestTraceReplayRejectsCorruptTrace cuts a trace file mid-record: the
// replay must fail (slipsim exits 1) rather than report the records before
// the cut as a normal run.
func TestTraceReplayRejectsCorruptTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "milc.trc")
	writeTrace(t, path, "milc", 20000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A varint byte with its continuation bit set cannot end a record.
	if err := os.WriteFile(path, append(data[:len(data)/2], 0x80), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{"-trace", path, "-accesses", "20000"}, &out)
	if err == nil || errors.Is(err, errUsage) {
		t.Errorf("corrupt trace: err = %v, want a run error", err)
	}
	if out.Len() != 0 {
		t.Errorf("corrupt trace printed a report:\n%s", out.String())
	}
}

// TestWriteTraceReplays checks -write-trace writes the same bytes as
// writeTrace for the same stream, that -trace replays the file, and that
// asking for both is a usage error.
func TestWriteTraceReplays(t *testing.T) {
	dir := t.TempDir()
	got, want := filepath.Join(dir, "got.trc"), filepath.Join(dir, "want.trc")
	runOK(t, "-workload", "milc", "-accesses", "20000", "-seed", "1", "-write-trace", got)
	writeTrace(t, want, "milc", 20000)
	gotB, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("-write-trace wrote %d bytes that differ from writeTrace's %d", len(gotB), len(wantB))
	}
	if !strings.Contains(runOK(t, "-trace", got, "-accesses", "20000"), "full-system dynamic energy") {
		t.Error("-trace replay of a -write-trace file printed no report")
	}

	err = run([]string{"-trace", got, "-write-trace", filepath.Join(dir, "again.trc")}, io.Discard)
	if !errors.Is(err, errUsage) {
		t.Errorf("-trace with -write-trace: err = %v, want a usage error", err)
	}
}

// TestWarmupDefaultsToAccesses pins the spec the flags denote when
// -warmup is not given: warmup equals -accesses, as in slipbench and a
// spec file without a warmup. -warmup 0 still means no warmup.
func TestWarmupDefaultsToAccesses(t *testing.T) {
	base := []string{"-workload", "milc", "-accesses", "20000", "-dump-spec"}
	got := runOK(t, base...)
	if want := runOK(t, append(base, "-warmup", "20000")...); got != want {
		t.Errorf("dump without -warmup:\n%s\nwant the dump with -warmup 20000:\n%s", got, want)
	}
	if !strings.Contains(got, `"warmup": 20000,`) {
		t.Errorf("dump without -warmup does not pin warmup 20000:\n%s", got)
	}
	if zero := runOK(t, append(base, "-warmup", "0")...); !strings.Contains(zero, `"warmup": 0,`) {
		t.Errorf("-warmup 0 does not pin a zero warmup:\n%s", zero)
	}
}

// TestBinBitsOutOfRange: a -binbits wider than the spec's 8-bit counters
// is a usage error, not a width narrowed to uint8 (260 would run 4-bit
// counters), while -binbits 8 still reaches the spec.
func TestBinBitsOutOfRange(t *testing.T) {
	for _, bits := range []string{"9", "260"} {
		var out bytes.Buffer
		if err := run([]string{"-binbits", bits, "-dump-spec"}, &out); !errors.Is(err, errUsage) {
			t.Errorf("-binbits %s: err = %v, want a usage error; printed:\n%s", bits, err, out.String())
		}
	}
	if got := runOK(t, "-binbits", "8", "-dump-spec"); !strings.Contains(got, `"bin_bits": 8,`) {
		t.Errorf("-binbits 8 does not reach the spec:\n%s", got)
	}
}

func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("slipsim %v: %v", args, err)
	}
	return out.String()
}

// writeTrace records n accesses of a workload at seed 1 in the trace file
// format.
func writeTrace(t *testing.T, path, workload string, n uint64) {
	t.Helper()
	wl, ok := workloads.ByName(workload)
	if !ok {
		t.Fatalf("unknown workload %q", workload)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range trace.Collect(wl.Build(1), int(n)) {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}
