package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestReportGoldens pins slipsim's report byte for byte. Re-record a
// golden, only for a change meant to alter results, with
// `go run ./cmd/slipsim <args> > cmd/slipsim/testdata/<name>.golden`.
func TestReportGoldens(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"slipabp", []string{"-workload", "soplex", "-policy", "slip+abp", "-accesses", "40000", "-warmup", "40000"}},
		{"mix", []string{"-workload", "milc", "-workload2", "mcf", "-cores", "2", "-accesses", "20000", "-warmup", "20000"}},
		{"sampling8", []string{"-workload", "sphinx3", "-sampling", "8", "-accesses", "40000", "-warmup", "40000"}},
		// A spec file without warmup canonicalizes to warmup = accesses;
		// the Suite's own default (2M) would change the report.
		{"nowarmup", []string{"-spec", filepath.Join("testdata", "nowarmup.json")}},
	}
	for _, tc := range cases {
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
