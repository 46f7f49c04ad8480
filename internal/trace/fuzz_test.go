package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/mem"
)

// accessesFromBytes deserializes the fuzzer's raw input into an access
// stream: 13 bytes per record (8 addr, 4 gap, 1 store), so the fuzzer can
// reach any address delta — including full-range backward jumps — and any
// gap value.
func accessesFromBytes(data []byte) []Access {
	n := len(data) / 13
	if n > 4096 {
		n = 4096
	}
	out := make([]Access, n)
	for i := range out {
		rec := data[i*13:]
		out[i] = Access{
			Addr:  mem.Addr(binary.LittleEndian.Uint64(rec)),
			Gap:   binary.LittleEndian.Uint32(rec[8:]),
			Store: rec[12]&1 == 1,
		}
	}
	return out
}

// record serializes one access into a fuzz seed corpus entry.
func record(addr uint64, gap uint32, store bool) []byte {
	var rec [13]byte
	binary.LittleEndian.PutUint64(rec[:], addr)
	binary.LittleEndian.PutUint32(rec[8:], gap)
	if store {
		rec[12] = 1
	}
	return rec[:]
}

// FuzzCodecRoundTrip drives arbitrary access streams through both encodings
// that share the delta/zigzag varint record format — the disk codec
// (Writer/Reader) and the in-memory materialization (Record/Replay) — and
// requires each to reproduce the input exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// Zigzag edge cases: the maximum address, a full-range backward delta
	// (max addr down to zero flips the delta sign bit), the maximum gap,
	// and an alternation that keeps deltas at the int64 extremes.
	f.Add(record(math.MaxUint64, 0, false))
	f.Add(append(record(math.MaxUint64, 7, true), record(0, 0, false)...))
	f.Add(record(0, math.MaxUint32, true))
	f.Add(append(append(
		record(0, 1, false),
		record(1<<63, 2, true)...),
		record(1, math.MaxUint32, false)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := accessesFromBytes(data)

		// Disk codec round trip.
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range in {
			if err := w.Write(a); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := Collect(r, len(in)+1); !slices.Equal(got, in) {
			t.Fatalf("reader: decoded %+v, want %+v", got, in)
		}
		if err := r.Err(); err != nil {
			t.Fatalf("reader: dirty EOF: %v", err)
		}

		// Materialized buffer round trip, through the same record format.
		mb := Record(&sliceSource{accs: in}, uint64(len(in)))
		if mb.Len() != uint64(len(in)) {
			t.Fatalf("buffer recorded %d accesses, want %d", mb.Len(), len(in))
		}
		if got := Collect(mb.Replay(), len(in)+1); !slices.Equal(got, in) {
			t.Fatalf("replay: decoded %+v, want %+v", got, in)
		}
	})
}

// sliceSource adapts a fixed slice to Source for recording.
type sliceSource struct{ accs []Access }

func (s *sliceSource) NextBatch(dst []Access) int {
	k := copy(dst, s.accs)
	s.accs = s.accs[k:]
	return k
}

// TestReaderTruncationAtEveryOffset cuts an encoded stream at every byte
// position and asserts the reader's contract at chunk sizes 1, 3 and 4096
// (slipsim's replay batch): every chunk size decodes the same records, a
// cut at a record boundary is a clean EOF (Err nil), and any cut inside a
// record surfaces corruption through Err.
func TestReaderTruncationAtEveryOffset(t *testing.T) {
	accs := []Access{
		{Addr: 0xffffffffffffffff, Gap: 3, Store: true}, // max addr, big first delta
		{Addr: 0, Gap: 0},                    // full-range backward jump
		{Addr: 1 << 40, Gap: math.MaxUint32}, // max gap: multi-byte meta varint
		{Addr: 1<<40 + 64, Store: true},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int{len(traceMagic)} // ends[i]: byte offset after i records
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	data := buf.Bytes()

	for cut := len(traceMagic); cut <= len(data); cut++ {
		whole, isBoundary := slices.BinarySearch(ends, cut)
		if !isBoundary {
			whole-- // the record the cut splits is lost
		}
		for _, chunk := range []int{1, 3, 4096} {
			r, err := NewReader(bytes.NewReader(data[:cut]))
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			n, dst := 0, make([]Access, chunk)
			for {
				k := r.NextBatch(dst)
				n += k
				if k < chunk {
					break
				}
			}
			switch {
			case n != whole:
				t.Errorf("cut %d chunk %d: decoded %d records, want %d", cut, chunk, n, whole)
			case isBoundary && r.Err() != nil:
				t.Errorf("cut %d chunk %d at record boundary: unexpected error %v", cut, chunk, r.Err())
			case !isBoundary && r.Err() == nil:
				t.Errorf("cut %d chunk %d inside a record: corruption not reported", cut, chunk)
			}
		}
	}
}
