// Batch equivalence: a Source yields the same stream whatever batch sizes
// its callers use. Warmup (4096-access batches), Drain and Record (512) cut
// one stream at different points and rely on it. The tests live in an
// external package so they can drive the real shipped workloads.
package trace_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func wl(name string, seed uint64) trace.Source {
	spec, _ := workloads.ByName(name)
	return spec.Build(seed)
}

func limited(name string, seed uint64, n int) func() trace.Source {
	return func() trace.Source { return trace.Limit(wl(name, seed), uint64(n)) }
}

// chunked reads up to n accesses from s in NextBatch calls of the given
// size, stopping at the first short count.
func chunked(s trace.Source, n, chunk int) []trace.Access {
	out := make([]trace.Access, 0, n)
	buf := make([]trace.Access, chunk)
	for len(out) < n {
		want := min(chunk, n-len(out))
		k := s.NextBatch(buf[:want])
		out = append(out, buf[:k]...)
		if k < want {
			break
		}
	}
	return out
}

// checkChunks requires build's source to yield want of n requested
// accesses one at a time, and that same stream at chunk sizes 3 to 4096.
// When of is non-nil, the stream must also be the first want accesses of
// of's source: the one an encoding was written from.
func checkChunks(t *testing.T, name string, build func() trace.Source, n, want int, of func() trace.Source) {
	t.Helper()
	ref := chunked(build(), n, 1)
	if len(ref) != want {
		t.Fatalf("%s: %d accesses at chunk 1, want %d", name, len(ref), want)
	}
	if of != nil && !slices.Equal(ref, trace.Collect(of(), want)) {
		t.Errorf("%s: stream differs from the one it was built from", name)
	}
	for _, chunk := range []int{3, 64, 1000, 4096} {
		if got := chunked(build(), n, chunk); !slices.Equal(got, ref) {
			t.Errorf("%s: chunk %d stream differs from chunk 1", name, chunk)
		}
	}
}

// TestWorkloadBatchEquivalence checks every shipped benchmark generator.
func TestWorkloadBatchEquivalence(t *testing.T) {
	for _, name := range workloads.Names() {
		checkChunks(t, name, func() trace.Source { return wl(name, 11) }, 20_000, 20_000, nil)
	}
}

// TestRecordKeepsNoSlack: a recorded buffer holds exactly the Size a
// cache charges for it, for every shipped workload, and replays the
// stream it recorded.
func TestRecordKeepsNoSlack(t *testing.T) {
	const n = 20_000
	for _, name := range workloads.Names() {
		buf := trace.Record(wl(name, 7), n)
		if c := trace.BufferCap(buf); c != buf.Size() {
			t.Errorf("%s: buffer holds %d bytes for Size %d", name, c, buf.Size())
		}
		if !slices.Equal(trace.Collect(buf.Replay(), n+1), trace.Collect(wl(name, 7), n)) {
			t.Errorf("%s: replay differs from the recorded stream", name)
		}
	}
}

// TestRecordAllocatesWithinOneChunk: recording 300k soplex accesses
// allocates what the buffer keeps plus one chunk (the last chunk before
// Record trims it) and its fixed cost, not the regrowth of one slice that
// an append-built buffer pays. What it keeps is its encoded records and,
// per full chunk, a tail too short for one more record.
func TestRecordAllocatesWithinOneChunk(t *testing.T) {
	// The 512-access decode batch (8 KiB) and the list of chunks.
	const fixed = 16 << 10
	src := wl("soplex", 7) // built outside the measured window
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	buf := trace.Record(src, 300_000)
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(buf.Size()+trace.ChunkBytes+fixed); got > bound {
		t.Errorf("Record allocated %d bytes to keep %d, want at most %d (Size plus one chunk and %d fixed)", got, buf.Size(), bound, fixed)
	}
	full := buf.Size() / trace.ChunkBytes
	if slack := buf.Size() - trace.EncodedBytes(buf); slack >= max(full, 1)*2*binary.MaxVarintLen64 {
		t.Errorf("buffer keeps %d bytes beyond its %d encoded bytes over %d full chunks", slack, trace.EncodedBytes(buf), full)
	}
}

// TestReplayAcrossChunks checks a replay that crosses chunk boundaries at
// every batch size checkChunks reads with.
func TestReplayAcrossChunks(t *testing.T) {
	const n = 100_000
	soplex := limited("soplex", 5, n)
	buf := trace.Record(soplex(), n)
	if buf.Size() < 3*trace.ChunkBytes {
		t.Fatalf("buffer of %d bytes spans fewer than three %d-byte chunks", buf.Size(), trace.ChunkBytes)
	}
	checkChunks(t, "replay across chunks", func() trace.Source { return buf.Replay() }, n+10, n, soplex)
}

// TestLimitBatchEquivalence checks limits that end the stream at, just
// before and just after the hierarchy's 4096-access batch boundary.
func TestLimitBatchEquivalence(t *testing.T) {
	for _, l := range []int{0, 1, 4095, 4096, 4097} {
		checkChunks(t, fmt.Sprintf("limit %d", l), limited("soplex", 3, l), l+10, l, nil)
	}
}

// TestPhasedBatchEquivalence checks batches that straddle phase changes.
func TestPhasedBatchEquivalence(t *testing.T) {
	checkChunks(t, "phased", func() trace.Source {
		return trace.NewPhased(trace.Phase{Source: wl("milc", 5), Len: 1000}, trace.Phase{Source: wl("mcf", 6), Len: 700})
	}, 5000, 5000, nil)
}

// TestReplayBatchEquivalence checks both decoders of the record format —
// the in-memory Replay and the disk Reader over a written file — against
// the stream they were written from.
func TestReplayBatchEquivalence(t *testing.T) {
	const n = 30_000
	sphinx3 := limited("sphinx3", 9, n)
	buf := trace.Record(sphinx3(), n)
	checkChunks(t, "replay", func() trace.Source { return buf.Replay() }, n+10, n, sphinx3)

	path := filepath.Join(t.TempDir(), "sphinx3.trc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range trace.Collect(sphinx3(), n) {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	checkChunks(t, "reader", func() trace.Source {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		r, err := trace.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}, n+10, n, sphinx3)
}

// coreTagged exposes an Interleave as a Source whose addresses carry the
// issuing core in their top byte, so comparing streams compares tags too.
type coreTagged struct{ iv *trace.Interleave }

func (c coreTagged) NextBatch(dst []trace.Access) int {
	cores := make([]int, len(dst))
	for i := range cores {
		cores[i] = 0xff // stale tags must be overwritten
	}
	k := c.iv.NextBatch(dst, cores)
	for i := range dst[:k] {
		dst[i].Addr |= mem.Addr(cores[i]) << 56
	}
	return k
}

// TestInterleaveBatchEquivalence checks the one-source bulk path, which
// must tag every access core 0, and a round robin whose sources end at
// different times.
func TestInterleaveBatchEquivalence(t *testing.T) {
	checkChunks(t, "interleave1", func() trace.Source {
		return coreTagged{trace.NewInterleave(limited("milc", 1, 9000)())}
	}, 9010, 9000, limited("milc", 1, 9000))
	checkChunks(t, "interleave2", func() trace.Source {
		return coreTagged{trace.NewInterleave(limited("milc", 1, 9000)(), limited("mcf", 2, 4000)())}
	}, 13_010, 13_000, nil)
}
